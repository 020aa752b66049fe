package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"udpsim/internal/sim"
)

// independentRuns simulates each job as its own machine per simpoint
// (sim.RunSimpointsCtx, no tape, no engine) — the reference every
// engine result must reproduce bit for bit.
func independentRuns(t *testing.T, o Options, jobs []jobSpec) []sim.Result {
	t.Helper()
	want := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		_, agg, err := sim.RunSimpointsCtx(context.Background(), o.cellConfig(j.app, j.mech, j.mutate), o.Simpoints, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = agg
	}
	return want
}

// TestRunAllBatchedMatchesUnbatched runs a multi-image, multi-mechanism
// grid through the lockstep engine and asserts bit-for-bit identical
// results to independent per-cell runs — the invariant that lets every
// figure share one lockstep path.
func TestRunAllBatchedMatchesUnbatched(t *testing.T) {
	grid := func() []jobSpec {
		var jobs []jobSpec
		for _, app := range []string{"mysql", "xgboost"} {
			for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP} {
				for _, depth := range []int{16, 64} {
					d := depth
					jobs = append(jobs, jobSpec{app: app, mech: mech,
						mutate: func(c *sim.Config) { c.FTQDepth = d }})
				}
			}
		}
		return jobs
	}

	o := engineOptions(21_101)
	o.Workloads = nil
	o.Simpoints = 2
	want := independentRuns(t, o, grid())

	ob := o
	ob.Parallelism = 3
	got, err := ob.runAll(grid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: engine result differs from independent run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}

	// Second pass: everything must come from the in-memory cache
	// (duplicate keys resolved without simulating).
	var lines []string
	var mu sync.Mutex
	oc := ob
	oc.Progress = func(s string) { mu.Lock(); lines = append(lines, s); mu.Unlock() }
	if _, err := oc.runAll(grid()); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if !strings.Contains(l, "(cached)") {
			t.Errorf("expected all-cached rerun, got line %q", l)
		}
	}
}

// TestBatchedSingleflightInterop runs the same keys concurrently
// through two engine calls of different widths: each batch claims
// whole key groups as one writer, so every key is either simulated by
// one call or waited on by the other, and both must agree bit-for-bit
// with independent runs. Under -race this is the regression test for
// the one-writer-per-batch locking in the engine's grouping path.
func TestBatchedSingleflightInterop(t *testing.T) {
	o := engineOptions(21_102)
	grid := func() []jobSpec {
		var jobs []jobSpec
		for _, mech := range []sim.Mechanism{sim.MechBaseline, sim.MechUDP, sim.MechUFTQATRAUR} {
			jobs = append(jobs, jobSpec{app: "mysql", mech: mech})
		}
		return jobs
	}
	want := independentRuns(t, o, grid())

	var wg sync.WaitGroup
	results := make([][]sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oo := o
			oo.Parallelism = i + 1
			results[i], errs[i] = oo.runAll(grid())
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for i := range want {
			if res[i] != want[i] {
				t.Errorf("cell %d: concurrent engine run differs from independent run", i)
			}
		}
	}
}

// TestRunDescriptorsBatchedCoalesces merges two descriptor jobs sharing
// a workload image into one pool and asserts per-job results match
// separate descriptor runs, including the cross-job dedup of an
// identical cell.
func TestRunDescriptorsBatchedCoalesces(t *testing.T) {
	mk := func(name string, instrs uint64, labels ...string) *Descriptor {
		d := &Descriptor{
			Name:         name,
			Workloads:    []string{"mysql"},
			Instructions: instrs,
			Warmup:       8_000,
		}
		for _, l := range labels {
			cs := ConfigSpec{Label: l, Mechanism: l}
			d.Configs = append(d.Configs, cs)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := mk("job-a", 21_103, "baseline", "udp")
	b := mk("job-b", 21_103, "baseline", "eip") // "baseline" cell identical to job-a's

	wantA, err := RunDescriptor(a, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := RunDescriptor(b, nil, 1)
	if err != nil {
		t.Fatal(err)
	}

	FlushResultCache()
	got, errs := RunDescriptorsBatched(nil, []DescriptorJob{{D: a}, {D: b}}, 2)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	check := func(got, want []DescriptorResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d cells, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("cell %d: coalesced result differs\n got: %+v\nwant: %+v", i, got[i], want[i])
			}
		}
	}
	check(got[0], wantA)
	check(got[1], wantB)
}
