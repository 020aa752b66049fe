package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, build func(*pb)) {
	var m pb
	build(&m)
	p.bytes(field, m.b)
}

// syntheticProfile builds a profile.proto whose stacks (leaf first) are
// given as function names; a stack entry of several names joined into
// one slice element models a location with inlined frames.
func syntheticProfile(t *testing.T, samples []struct {
	stack [][]string
	value int64
}, packed bool) []byte {
	t.Helper()
	strs := []string{""}
	fnID := map[string]uint64{}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) }) // sample_type: samples/count
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) }) // sample_type: cpu/nanoseconds
	strs = append(strs, "samples", "count", "cpu", "nanoseconds")
	var locs, fns pb
	nextLoc := uint64(1)
	for _, s := range samples {
		var ids []uint64
		for _, frames := range s.stack {
			id := nextLoc
			nextLoc++
			ids = append(ids, id)
			locs.msg(4, func(m *pb) {
				m.uint(1, id)
				for _, fn := range frames {
					f, ok := fnID[fn]
					if !ok {
						f = uint64(len(fnID) + 1)
						fnID[fn] = f
						strs = append(strs, fn)
						idx := uint64(len(strs) - 1)
						fns.msg(5, func(m *pb) { m.uint(1, f); m.uint(2, idx) })
					}
					m.msg(4, func(l *pb) { l.uint(1, f); l.uint(2, 7) })
				}
			})
		}
		p.msg(2, func(m *pb) {
			if packed {
				var ps pb
				for _, id := range ids {
					ps.varint(id)
				}
				m.bytes(1, ps.b)
				var vs pb
				vs.varint(uint64(s.value / 10))
				vs.varint(uint64(s.value))
				m.bytes(2, vs.b)
				return
			}
			for _, id := range ids {
				m.uint(1, id)
			}
			m.uint(2, uint64(s.value/10))
			m.uint(2, uint64(s.value))
		})
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, fns.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	const (
		issue    = "udpsim/internal/backend.(*Backend).issue"
		step     = "udpsim/internal/sim.(*Machine).Step"
		malloc   = "runtime.mallocgc"
		log2     = "udpsim/internal/cache.log2"
		index    = "udpsim/internal/cache.(*Cache).index"
		dataReq  = "udpsim/internal/memory.(*Hierarchy).DataRequest"
		gcWorker = "runtime.gcBgMarkWorker"
		httpConn = "net/http.(*conn).serve"
		clientDo = "udpsim/internal/serve/client.(*Client).do"
		harness  = "main.main"
	)
	samples := []struct {
		stack [][]string
		value int64
	}{
		// A runtime helper is charged to the repo layer that called it.
		{[][]string{{malloc}, {issue}, {step}}, 400},
		// Inlined frames: log2 is the leaf, inlined into index.
		{[][]string{{log2, index}, {dataReq}, {issue}, {step}}, 300},
		// No repo frame: runtime when the leaf is the runtime, else other.
		{[][]string{{gcWorker}}, 150},
		{[][]string{{httpConn}}, 100},
		// The load generator is the harness, not serve.
		{[][]string{{clientDo}, {harness}}, 50},
	}
	for _, packed := range []bool{false, true} {
		p, err := parseCPUProfile(syntheticProfile(t, samples, packed))
		if err != nil {
			t.Fatal(err)
		}
		a := attribute(p)
		if a.total != 1000 {
			t.Fatalf("packed=%v: total %d, want 1000 (the last sample value)", packed, a.total)
		}
		wantLayer := map[string]float64{"backend": 40, "cache": 30, "runtime": 15, "other": 10, "harness": 5}
		for layer, want := range wantLayer {
			if got := a.pct(a.layer[layer]); got != want {
				t.Errorf("packed=%v: %s share %.1f%%, want %.1f%%", packed, layer, got, want)
			}
		}
		if got := a.pct(a.cum[issue]); got != 70 {
			t.Errorf("issue cum %.1f%%, want 70%%", got)
		}
		if got := a.pct(a.flat[log2]); got != 30 {
			t.Errorf("log2 flat %.1f%%, want 30%% (inlined leaf)", got)
		}
		if got := a.pct(a.flat[index]); got != 0 {
			t.Errorf("index flat %.1f%%, want 0 (log2 is inlined into it)", got)
		}
		if got := a.pct(a.cum[dataReq]); got != 30 {
			t.Errorf("DataRequest cum %.1f%%, want 30%%", got)
		}
	}
}

func TestParseCPUProfileRejectsTruncated(t *testing.T) {
	var p pb
	p.msg(2, func(m *pb) { m.uint(1, 1) })
	if _, err := parseCPUProfile(p.b[:len(p.b)-1]); err == nil {
		t.Fatal("truncated profile parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"udpsim/internal/cache.(*MSHRFile).Lookup":      "cache",
		"udpsim/internal/serve.(*Server).handleSubmit":  "serve",
		"udpsim/internal/serve/placement.(*Ring).Owner": "serve",
		"udpsim/internal/serve/client.(*Client).Submit": "harness",
		"main.runCell.func1":                            "harness",
		"udpsim/internal/experiments.ForEachCtx.func1":  "experiments",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := layerOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc attributed to a repo layer")
	}
}

// TestAttributeRecordedProfile profiles a real simulation and checks
// the attribution sees the simulator's layers.
func TestAttributeRecordedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("records a CPU profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	cfg := sim.NewConfig(workload.MustByName("mysql"), sim.MechUDP)
	cfg.WarmupInstructions, cfg.MaxInstructions = 0, 150_000
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := sim.RunOne(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if a.total == 0 {
		t.Skip("profile recorded no samples")
	}
	var sum float64
	for _, v := range a.layer {
		sum += a.pct(v)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %.6f%%, want 100%%", sum)
	}
	for _, layer := range []string{"backend", "frontend"} {
		if a.layer[layer] == 0 {
			t.Errorf("no %s samples in a simulation profile: %v", layer, a.layer)
		}
	}
	if a.cum["udpsim/internal/sim.(*Machine).Step"] == 0 {
		t.Error("Machine.Step never on the stack")
	}
}
