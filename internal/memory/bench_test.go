package memory

import (
	"testing"

	"udpsim/internal/isa"
)

// BenchmarkHierarchyRequest measures the per-request cost of the
// two-phase request path (lookup + MSHR allocate/merge + fill-port and
// DRAM-channel scheduling + completion sweep), the memory-side
// component of Machine.Step's cycle budget. It lives next to
// BenchmarkMachineStep in the CI bench artifact and shares its
// contract: the request path must not allocate — the zero-alloc awk
// gate in CI checks this file's allocs/op column too.
func BenchmarkHierarchyRequest(b *testing.B) {
	b.Run("instr-mixed", func(b *testing.B) {
		h := New(testConfig())
		// 1024 lines (64 KiB): larger than L1I working sets, small
		// enough that steady state mixes L2 hits, merges and misses.
		const lines = 1024
		b.ReportAllocs()
		b.ResetTimer()
		cycle := uint64(1)
		for i := 0; i < b.N; i++ {
			h.Tick(cycle)
			h.InstrRequest(ln(i%lines), cycle, i%4 == 0)
			cycle++
		}
	})
	b.Run("data-mixed", func(b *testing.B) {
		h := New(testConfig())
		const spanBytes = 1 << 20 // 1 MiB stride space: L1D misses, LLC mostly holds
		b.ReportAllocs()
		b.ResetTimer()
		cycle := uint64(1)
		for i := 0; i < b.N; i++ {
			h.Tick(cycle)
			h.DataRequest(isa.Addr(0x800000+(i*72)%spanBytes), cycle)
			cycle++
		}
	})
	b.Run("data-blocked", func(b *testing.B) {
		// A full L1D MSHR file and a backend's worth of blocked loads
		// re-issued every cycle the way the backend does it: the first
		// rejection goes through DataRequest, the repeats through
		// RepeatDataReject. The blocking fills are requested for a
		// far-future cycle, so none lands inside the timed loop.
		h := New(testConfig())
		mshrs := h.Config().L1DMSHRs
		for i := 0; i < mshrs; i++ {
			h.DataRequest(isa.Addr(0x800000+i*isa.LineBytes), 1<<40)
		}
		const blocked = 16
		var gens [blocked]uint64
		b.ReportAllocs()
		b.ResetTimer()
		cycle := uint64(2)
		for i := 0; i < b.N; i++ {
			if i%blocked == 0 {
				h.Tick(cycle)
				cycle++
			}
			addr := isa.Addr(0x900000 + (i%blocked)*isa.LineBytes)
			if g := &gens[i%blocked]; *g != 0 && *g == h.L1DGeneration() {
				h.RepeatDataReject(addr)
			} else if _, level, ok := h.DataRequest(addr, cycle); !ok && level == LevelL1 {
				*g = h.L1DGeneration()
			}
		}
		if h.L1DMSHRFile().Occupancy() != mshrs {
			b.Fatal("a blocking fill completed inside the timed loop")
		}
	})
}

// TestHierarchyRequestZeroAlloc pins the zero-allocation contract of
// the request path outside the benchmark, so a regression fails `go
// test` even when benchmarks are not run.
func TestHierarchyRequestZeroAlloc(t *testing.T) {
	h := New(testConfig())
	cycle := uint64(1)
	// Warm the MSHR files and ports past their initial growth.
	for i := 0; i < 4096; i++ {
		h.Tick(cycle)
		h.InstrRequest(ln(i%512), cycle, i%4 == 0)
		h.DataRequest(isa.Addr(0x800000+(i*72)%(1<<20)), cycle)
		cycle++
	}
	allocs := testing.AllocsPerRun(2000, func() {
		h.Tick(cycle)
		h.InstrRequest(ln(int(cycle)%512), cycle, cycle%4 == 0)
		h.DataRequest(isa.Addr(0x800000+(uint64(cycle)*72)%(1<<20)), cycle)
		cycle++
	})
	if allocs != 0 {
		t.Errorf("request path allocates: %.1f allocs/op", allocs)
	}
}
