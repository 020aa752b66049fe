package memory

import (
	"math/rand"
	"reflect"
	"testing"

	"udpsim/internal/cache"
	"udpsim/internal/isa"
	"udpsim/internal/obs"
)

// repeatDemand is one outstanding data demand of the differential
// test: its address and the shortcut side's L1DGeneration at its last
// LevelL1 rejection (0 = none), as the backend records it.
type repeatDemand struct {
	addr  isa.Addr
	l1Gen uint64
}

// TestRepeatDataRejectMatchesDataRequest drives three hierarchies
// through the same random mix of data demands (with stream prefetches
// behind them) and instruction fills. One always calls DataRequest; the
// other two replay a demand's LevelL1 rejection whenever L1DGeneration
// has not moved since it: one through RepeatDataReject per demand, the
// other the way the backend does, through RepeatDataRejectEvent per
// demand and one RepeatDataRejects call for the cycle's n repeats. Every
// cycle, every outcome, statistic and observed event must be equal.
func TestRepeatDataRejectMatchesDataRequest(t *testing.T) {
	for _, l1dMSHRs := range []int{2, 3, 4} {
		cfg := testConfig()
		cfg.L1DMSHRs = l1dMSHRs
		cfg.L2MSHRs = 6
		cfg.LLCMSHRs = 8
		cfg.StreamPrefetcher = true
		full, short, bulk := New(cfg), New(cfg), New(cfg)
		all := []*Hierarchy{full, short, bulk}
		for _, h := range all {
			h.Obs = &obs.Observer{Life: obs.NewLifecycle()}
		}

		// The sequential region starts out in the LLC, so its fills
		// turn L1D MSHRs over quickly.
		stream := isa.Addr(0x2000000)
		for i := 0; i < 4096; i++ {
			for _, h := range all {
				h.LLC.Insert(stream+isa.Addr(i*isa.LineBytes), 0, false)
			}
		}

		rng := rand.New(rand.NewSource(int64(l1dMSHRs)))
		var queue []repeatDemand
		var repeats, bulkCycles, l2Rejects uint64
		for cycle := uint64(1); cycle <= 6000; cycle++ {
			// A fresh tracer per cycle keeps the comparison to this
			// cycle's events.
			for _, h := range all {
				h.Obs.Trace = obs.NewTracer(4096)
				h.Obs.SetNow(cycle)
				h.Tick(cycle)
			}

			// Out of every 1000 cycles, 500 carry only a trickle of
			// sequential demands: the MSHR files drain, and the stream
			// prefetches behind those demands find free entries.
			quiet := cycle%1000 < 500
			demands := rng.Intn(3)
			if quiet {
				demands = 0
				if rng.Intn(40) == 0 {
					demands = 1
				}
			}
			for ; demands > 0 && len(queue) < 12; demands-- {
				var addr isa.Addr
				switch r := rng.Intn(10); {
				case quiet || r < 3: // sequential: trains the stream prefetcher
					addr = stream
					stream += isa.LineBytes
				case r < 6: // hot set: L1D hits and merges
					addr = isa.Addr(0x800000 + rng.Intn(48)*isa.LineBytes + rng.Intn(isa.LineBytes))
				default: // cold: misses down to DRAM
					addr = isa.Addr(0x4000000 + rng.Intn(1<<22))
				}
				queue = append(queue, repeatDemand{addr: addr})
			}
			if !quiet && rng.Intn(4) == 0 {
				line := ln(rng.Intn(4096))
				prefetch := rng.Intn(2) == 0
				r1, l1, ok1 := full.InstrRequest(line, cycle, prefetch)
				for _, h := range all[1:] {
					r2, l2, ok2 := h.InstrRequest(line, cycle, prefetch)
					if r1 != r2 || l1 != l2 || ok1 != ok2 {
						t.Fatalf("mshrs=%d cycle %d: instr fill diverged: (%d,%v,%v) vs (%d,%v,%v)", l1dMSHRs, cycle, r1, l1, ok1, r2, l2, ok2)
					}
				}
			}

			// Issue every outstanding demand in order, as the backend's
			// issue pass does; accepted ones leave the queue.
			keep := 0
			var cycleRepeats uint64
			for i := range queue {
				d := &queue[i]
				start := cycle + uint64(rng.Intn(3))
				lat, level, ok := full.DataRequest(d.addr, start)
				if d.l1Gen != 0 && d.l1Gen == short.L1DGeneration() {
					if ok || level != LevelL1 {
						t.Fatalf("mshrs=%d cycle %d: %#x repeated a rejection the full path served at %v (ok=%v)", l1dMSHRs, cycle, d.addr, level, ok)
					}
					short.RepeatDataReject(d.addr)
					bulk.RepeatDataRejectEvent(d.addr)
					cycleRepeats++
				} else {
					for _, h := range all[1:] {
						lat2, level2, ok2 := h.DataRequest(d.addr, start)
						if lat != lat2 || level != level2 || ok != ok2 {
							t.Fatalf("mshrs=%d cycle %d: %#x diverged: (%d,%v,%v) vs (%d,%v,%v)", l1dMSHRs, cycle, d.addr, lat, level, ok, lat2, level2, ok2)
						}
					}
					if !ok && level == LevelL1 {
						d.l1Gen = short.L1DGeneration()
					}
					if !ok && level != LevelL1 {
						l2Rejects++
					}
				}
				if !ok {
					queue[keep] = *d
					keep++
				}
			}
			queue = queue[:keep]
			bulk.RepeatDataRejects(cycleRepeats)
			repeats += cycleRepeats
			if cycleRepeats > 1 {
				bulkCycles++
			}

			assertSameHierarchy(t, full, short, l1dMSHRs, cycle)
			assertSameHierarchy(t, full, bulk, l1dMSHRs, cycle)
		}
		if repeats == 0 || bulkCycles == 0 || l2Rejects == 0 || full.Stats.StreamPrefetches == 0 {
			t.Errorf("mshrs=%d: traffic did not reach every path: %d repeats (%d cycles with several), %d rejections below the L1D, %d stream prefetches",
				l1dMSHRs, repeats, bulkCycles, l2Rejects, full.Stats.StreamPrefetches)
		}
	}
}

// assertSameHierarchy fails unless a and b agree on every statistic,
// every MSHR file's counters and generation, and the events observed
// this cycle.
func assertSameHierarchy(t *testing.T, a, b *Hierarchy, mshrs int, cycle uint64) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("mshrs=%d cycle %d: Stats diverged:\n%+v\n%+v", mshrs, cycle, a.Stats, b.Stats)
	}
	for _, c := range [][2]*cache.Cache{{a.L1D, b.L1D}, {a.L2, b.L2}, {a.LLC, b.LLC}} {
		if c[0].Stats != c[1].Stats {
			t.Fatalf("mshrs=%d cycle %d: %s stats diverged:\n%+v\n%+v", mshrs, cycle, c[0].Config().Name, c[0].Stats, c[1].Stats)
		}
	}
	for _, f := range [][2]*cache.MSHRFile{
		{a.L1DMSHRFile(), b.L1DMSHRFile()},
		{a.L2MSHRFile(), b.L2MSHRFile()},
		{a.LLCMSHRFile(), b.LLCMSHRFile()},
	} {
		if f[0].Stats != f[1].Stats || f[0].Generation() != f[1].Generation() {
			t.Fatalf("mshrs=%d cycle %d: MSHR file diverged:\n%+v gen %d\n%+v gen %d", mshrs, cycle, f[0].Stats, f[0].Generation(), f[1].Stats, f[1].Generation())
		}
	}
	if a.Obs.Trace.Dropped() != 0 {
		t.Fatalf("mshrs=%d cycle %d: tracer overflowed", mshrs, cycle)
	}
	if ea, eb := a.Obs.Trace.Events(), b.Obs.Trace.Events(); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("mshrs=%d cycle %d: events diverged:\n%+v\n%+v", mshrs, cycle, ea, eb)
	}
	if sa, sb := a.Obs.Life.Summary(), b.Obs.Life.Summary(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("mshrs=%d cycle %d: lifecycle diverged", mshrs, cycle)
	}
}
