package main

import (
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// tinyOptions is a fidelity small enough for unit tests yet with a
// warm-up, so the warm-up boundary is exercised.
var tinyOptions = experiments.Options{Instructions: 20_000, Warmup: 30_000, Simpoints: 1}

// TestGridMatchesEngineAcrossFlush runs a grid through the experiment
// engine twice, separated by FlushResultCache, and once through the
// harness's own runner at seed 0: all three digests agree, and the
// harness's Fig. 13 rows are the engine's.
func TestGridMatchesEngineAcrossFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a grid three times")
	}
	apps := []string{"mysql"}
	d := fig13Descriptor(apps, tinyOptions)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	engine := func() string {
		rs, err := experiments.RunDescriptor(d, nil, benchWorkers)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]sim.Result, len(rs))
		for i, r := range rs {
			results[i] = r.Result
		}
		digest, err := digestResults(results)
		if err != nil {
			t.Fatal(err)
		}
		return digest
	}
	first := engine()
	experiments.FlushResultCache()
	if second := engine(); second != first {
		t.Fatalf("engine digest changed across FlushResultCache: %s then %s", first, second)
	}

	p := runGridPass(gridCells(d, gridSalt(0)))
	for i, err := range p.errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	digest, err := digestResults(p.results)
	if err != nil {
		t.Fatal(err)
	}
	if digest != first {
		t.Fatalf("harness digest %s, engine digest %s: seed 0 must be the engine's region", digest, first)
	}

	o := tinyOptions
	o.Workloads, o.Parallelism = apps, benchWorkers
	rows, err := experiments.Figure13(o)
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range experiments.UDPSeries {
		if got, want := p.results[1+si].Speedup(p.results[0]), rows[0].Speedups[s]; got != want {
			t.Errorf("%s speedup %v, Figure13 says %v", s, got, want)
		}
	}
}

// TestGridCountsFailures injects a cell whose geometry is invalid: it
// fails alone, and the run reports it.
func TestGridCountsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a grid")
	}
	d := &experiments.Descriptor{Name: "inject", Workloads: []string{"mysql"},
		Instructions: 5_000, Warmup: 5_000, Simpoints: 1,
		Configs: []experiments.ConfigSpec{
			{Label: "baseline", Mechanism: "baseline"},
			// 48 KiB at 8 ways is 96 sets: not indexable.
			{Label: "bad-icache", Mechanism: "baseline", ICacheKB: 48, ICacheWays: 8},
		}}
	out, err := runGrid(runConfig{workload: "inject", seconds: 1, quiet: true}, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted%2 != 0 || out.failed != out.attempted/2 {
		t.Fatalf("attempted %d, failed %d: want one failure per pass of 2 cells", out.attempted, out.failed)
	}
	if got := out.e2e["pass_frac"]; got != 0.5 {
		t.Errorf("pass_frac %v, want 0.5", got)
	}
}

func TestCheckCell(t *testing.T) {
	cfg := sim.NewConfig(workload.MustByName("mysql"), sim.MechBaseline)
	cfg.MaxInstructions = 1000
	good := sim.Result{Instructions: 1000, Cycles: 2000, IPC: 0.5, IcacheAccesses: 10, IcacheMisses: 2,
		PrefetchesEmitted: 5, PrefetchUseful: 3, PrefetchUseless: 2}
	if err := checkCell(cfg, good, 0); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*sim.Result){
		"short run":        func(r *sim.Result) { r.Instructions = 999 },
		"misses>accesses":  func(r *sim.Result) { r.IcacheMisses = 11 },
		"over-classified":  func(r *sim.Result) { r.PrefetchUseless = 3 },
		"ipc beyond width": func(r *sim.Result) { r.IPC = float64(cfg.Width) + 0.01 },
	} {
		r := good
		mutate(&r)
		if checkCell(cfg, r, 0) == nil {
			t.Errorf("%s passed the gate", name)
		}
	}
	over := good
	over.PrefetchUseless = 3
	if err := checkCell(cfg, over, 1); err != nil {
		t.Errorf("a prefetch carried in from warm-up is not an over-count: %v", err)
	}
}

func TestGridSalt(t *testing.T) {
	if gridSalt(0) != sim.SimpointSalt(0) {
		t.Error("seed 0 must select the region cmd/figures simulates")
	}
	if gridSalt(-1) != gridSalt(gridRegions-1) || gridSalt(gridRegions+3) != gridSalt(3) {
		t.Error("seeds must map onto regions modulo gridRegions")
	}
}
