package main

import (
	"bytes"
	"testing"

	"udpsim/internal/experiments"
	"udpsim/internal/serve"
	"udpsim/internal/sim"
)

func TestPlanDaemonIsSeeded(t *testing.T) {
	a, err := planDaemon(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := planDaemon(7)
	c, _ := planDaemon(8)
	if len(a.jobs) != len(b.jobs) {
		t.Fatal("same seed, different job counts")
	}
	same, keys, cold := true, map[string]bool{}, 0
	for i := range a.jobs {
		if !bytes.Equal(a.jobs[i].desc, b.jobs[i].desc) {
			t.Fatalf("job %d differs between two plans of seed 7", i)
		}
		same = same && bytes.Equal(a.jobs[i].desc, c.jobs[i].desc)
		if keys[a.jobs[i].key] {
			t.Fatalf("job %d repeats cell %s", i, a.jobs[i].key)
		}
		keys[a.jobs[i].key] = true
		if !a.jobs[i].warm {
			cold++
		}
	}
	if same {
		t.Error("seeds 7 and 8 planned the same jobs")
	}
	if share := 1 - float64(cold)/float64(len(a.jobs)); share < 0.85 || share > 0.95 {
		t.Errorf("%d cold of %d jobs: want about 9 in 10 warm", cold, len(a.jobs))
	}
}

func TestVerifyJobDetectsMismatch(t *testing.T) {
	job, err := newDaemonJob("mysql", experiments.ConfigSpec{Label: "udp", Mechanism: "udp"}, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.Result{Instructions: 1000, Cycles: 4000, IPC: 0.25}
	refs := map[string]sim.Result{job.key: ref}
	if err := verifyJob(job, serve.StoredResult{Key: job.key, Result: ref}, refs); err != nil {
		t.Fatalf("matching result rejected: %v", err)
	}
	moved := ref
	moved.Cycles++
	if verifyJob(job, serve.StoredResult{Key: job.key, Result: moved}, refs) == nil {
		t.Error("a daemon result that differs from the engine's passed")
	}
	if verifyJob(job, serve.StoredResult{Key: "other", Result: ref}, refs) == nil {
		t.Error("a result stored under another key passed")
	}
}

// TestDaemonCountsFailures drives a real in-process daemon with a few
// good jobs, a descriptor it rejects, and a cell that fails to build:
// exactly the latter two count as failed.
func TestDaemonCountsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	warm := experiments.ConfigSpec{Label: "baseline", Mechanism: "baseline"}
	pre := &experiments.Descriptor{Name: "prepopulate", Workloads: []string{"mysql"},
		Instructions: 4, Simpoints: 1, Configs: []experiments.ConfigSpec{warm}}
	if err := pre.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := daemonPlan{prepopulate: []*experiments.Descriptor{pre}}
	add := func(app string, cs experiments.ConfigSpec, instrs uint64, warm bool) {
		t.Helper()
		job, err := newDaemonJob(app, cs, instrs, warm)
		if err != nil {
			t.Fatal(err)
		}
		plan.jobs = append(plan.jobs, job)
	}
	add("mysql", warm, 4, true)
	add("verilator", experiments.ConfigSpec{Label: "udp", Mechanism: "udp"}, 2_000, false)
	// Injected failing cell: 48 KiB at 8 ways is not indexable.
	add("mysql", experiments.ConfigSpec{Label: "bad", Mechanism: "baseline", ICacheKB: 48, ICacheWays: 8}, 2_000, false)
	// A descriptor the daemon rejects with 400 (unknown mechanism).
	plan.jobs = append(plan.jobs, daemonJob{warm: true,
		desc: []byte(`{"name":"rejected","workloads":["mysql"],"configs":[{"label":"x","mechanism":"no-such-mechanism"}]}`)})

	out, err := runDaemon(runConfig{workload: "daemon-mixed", seconds: 1, quiet: true, work: t.TempDir()}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != 4 || out.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 4 and 2", out.attempted, out.failed)
	}
	if got := out.e2e["pass_frac"]; got != 0.5 {
		t.Errorf("pass_frac %v, want 0.5", got)
	}
	if len(out.problems) != 0 {
		t.Errorf("problems %v: the cache-miss count must include the failed cold cell", out.problems)
	}
}
