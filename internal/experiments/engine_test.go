package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"udpsim/internal/sim"
)

// engineOptions returns options with instruction counts unique enough
// that the tests below exercise fresh resultCache keys even when other
// tests in the package have already populated the cache.
func engineOptions(instrs uint64) Options {
	return Options{
		Instructions: instrs,
		Warmup:       10_000,
		Simpoints:    1,
		Workloads:    []string{"mysql"},
	}
}

// TestSingleflightDeduplicatesConcurrentRuns issues the same experiment
// key from two goroutines at once and asserts exactly one simulation
// happened (one untagged progress line) while the other caller was
// served by the in-flight runner (one "(cached)" line), with identical
// results. Run with -race this also exercises the engine's locking.
func TestSingleflightDeduplicatesConcurrentRuns(t *testing.T) {
	o := engineOptions(21_001)
	var mu sync.Mutex
	var lines []string
	o.Progress = func(s string) {
		mu.Lock()
		lines = append(lines, s)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	results := make([]sim.Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = o.run("mysql", sim.MechBaseline, nil)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if results[0] != results[1] {
		t.Errorf("deduplicated callers saw different results:\n%v\n%v", results[0], results[1])
	}
	if len(lines) != 2 {
		t.Fatalf("%d progress lines, want 2: %q", len(lines), lines)
	}
	cached := 0
	for _, l := range lines {
		if strings.Contains(l, "(cached)") {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("want exactly 1 cached + 1 simulated line, got %d cached: %q", cached, lines)
	}
}

// TestRunAllDeterministicOrder submits a grid whose cells are
// distinguishable by FinalFTQDepth and asserts the parallel engine
// returns them in input-grid positions.
func TestRunAllDeterministicOrder(t *testing.T) {
	o := engineOptions(21_002)
	o.Parallelism = 4
	depths := []int{8, 12, 16, 24, 48, 64}
	var jobs []jobSpec
	for _, d := range depths {
		depth := d
		jobs = append(jobs, jobSpec{app: "mysql", mech: sim.MechBaseline,
			mutate: func(c *sim.Config) { c.FTQDepth = depth }})
	}
	results, err := o.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(depths) {
		t.Fatalf("%d results for %d jobs", len(results), len(depths))
	}
	for i, d := range depths {
		if results[i].FinalFTQDepth != d {
			t.Errorf("slot %d: FTQ depth %d, want %d (results out of grid order)",
				i, results[i].FinalFTQDepth, d)
		}
	}

	// A second pass at a different parallelism must be value-identical
	// (fully cache-served) and in the same order.
	o2 := o
	o2.Parallelism = 1
	again, err := o2.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if again[i] != results[i] {
			t.Errorf("slot %d differs between parallelism 4 and 1", i)
		}
	}
}

// TestRunAllAggregatesErrors asserts a failing cell doesn't hide other
// cells' failures and that good cells still complete.
func TestRunAllAggregatesErrors(t *testing.T) {
	o := engineOptions(21_003)
	o.Parallelism = 2
	jobs := []jobSpec{
		{app: "mysql", mech: sim.MechBaseline},
		{app: "mysql", mech: "warp-drive"},
		{app: "mysql", mech: sim.Mechanism("flux-capacitor")},
	}
	_, err := o.runAll(jobs)
	if err == nil {
		t.Fatal("invalid mechanisms accepted")
	}
	if !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "flux-capacitor") {
		t.Errorf("errors not aggregated: %v", err)
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		n := 17
		out := make([]int, n)
		err := ForEach(n, workers, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Errorf("workers=%d: slot %d = %d", workers, i, out[i])
			}
		}
	}
	err := ForEach(4, 2, func(i int) error {
		if i%2 == 1 {
			return errors.New("odd")
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
}

// TestRunChunksWidths pins the engine's chunk scheduling on a shared
// worker budget: an uneven [16, 1] grid at 2 workers gives the big chunk
// both workers (it does not shrink to the smallest chunk's width), and
// four single-machine chunks at 2 workers run two at a time.
func TestRunChunksWidths(t *testing.T) {
	var mu sync.Mutex
	widths := map[int]int{}
	runChunks([][]int{make([]int, 16), make([]int, 1)}, 2, func(chunk []int, width int) {
		mu.Lock()
		widths[len(chunk)] = width
		mu.Unlock()
	})
	if widths[16] != 2 || widths[1] != 1 {
		t.Errorf("[16,1] at 2 workers: widths %v, want 16:2 1:1", widths)
	}

	// The first two chunks only return once both are running, so a
	// scheduler that ran them one after the other would hang here.
	var pair sync.WaitGroup
	pair.Add(2)
	done := make(chan struct{})
	go func() {
		runChunks([][]int{{0}, {1}, {2}, {3}}, 2, func(chunk []int, width int) {
			if chunk[0] < 2 {
				pair.Done()
				pair.Wait()
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("single-machine chunks did not run side by side")
	}
}

func TestNormalizeSweepErrors(t *testing.T) {
	good := []SweepSeries{{App: "a", X: []int{16, 32}, Values: []float64{1.0, 2.0}}}
	if err := normalizeSweep(good, 32); err != nil {
		t.Fatal(err)
	}
	if good[0].Values[1] != 0 || good[0].Values[0] != -0.5 {
		t.Errorf("normalization wrong: %+v", good[0].Values)
	}

	missing := []SweepSeries{{App: "a", X: []int{16, 64}, Values: []float64{1.0, 2.0}}}
	if err := normalizeSweep(missing, 32); err == nil {
		t.Error("missing baseline accepted")
	}
	zero := []SweepSeries{{App: "a", X: []int{16, 32}, Values: []float64{1.0, 0}}}
	if err := normalizeSweep(zero, 32); err == nil {
		t.Error("zero baseline accepted")
	}
}

// TestParallelismDefault ensures Parallelism <= 0 resolves to a
// positive pool width.
func TestParallelismDefault(t *testing.T) {
	var o Options
	if o.parallelism() < 1 {
		t.Errorf("default parallelism %d", o.parallelism())
	}
	o.Parallelism = 3
	if o.parallelism() != 3 {
		t.Errorf("explicit parallelism ignored: %d", o.parallelism())
	}
}
