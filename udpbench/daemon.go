package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/serve"
	"udpsim/internal/serve/client"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// The daemon-mixed workload: an in-process udpsimd at its default
// flags, over a fresh store, driven as a closed loop by benchWorkers
// clients that each submit distinct single-cell descriptors and wait
// for the terminal SSE event. About 9 in 10 jobs are warm: set-up put
// their cells in the store before the daemon started. The rest are
// cold: reduced-fidelity cells the daemon simulates and then writes.
const (
	// warmInstrCounts distinct measured-instruction counts, drawn from
	// 1..warmInstrMax, times every paper app and every mechanism, give
	// the warm cells. A warm cell's fidelity does not matter (the daemon
	// only reads it), so warm cells are tiny and cheap to pre-populate.
	warmInstrCounts = 10
	warmInstrMax    = 16
	// daemonSetupReps is how many times a run sets up a store and a
	// daemon; setup_s is the median.
	daemonSetupReps = 3
	// Every (app, mechanism) pair is one cold cell, so every seed
	// simulates the same mix and the cold work does not swing with the
	// seed: 10 apps × 10 mechanisms = 100 cold cells, the fewest for a
	// p90 with 10 samples beyond it (as 1000 warm cells are for a p99).
	// coldInstrs sizes a cold cell (each cold cell adds its index, so
	// no two share a cache key). Cold cells have no warm-up: with one,
	// the prefetch ledger of checkCell would need the prefetches carried
	// across the warm-up boundary, which a daemon result does not show.
	coldInstrs = 15_000
)

// daemonJob is one submission.
type daemonJob struct {
	desc []byte     // single-cell descriptor JSON
	key  string     // the cell's result-cache key
	cfg  sim.Config // the cell's machine, for the correctness gate
	warm bool
}

// daemonPlan is everything the seed decides: the warm cells set-up
// stores (one descriptor per instruction count) and the job list in
// submission order.
type daemonPlan struct {
	prepopulate []*experiments.Descriptor
	jobs        []daemonJob
}

// planDaemon derives the workload's inputs from the seed: which
// instruction counts make the warm cells, which cold cell gets which
// instruction count, and the submission order.
func planDaemon(seed int64) (daemonPlan, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x55445042))
	apps := workload.Names
	var mechs []experiments.ConfigSpec
	for _, m := range sim.Mechanisms() {
		mechs = append(mechs, experiments.ConfigSpec{Label: string(m), Mechanism: string(m)})
	}
	var plan daemonPlan
	for _, k := range rng.Perm(warmInstrMax)[:warmInstrCounts] {
		d := &experiments.Descriptor{Name: fmt.Sprintf("prepopulate-%d", k+1), Workloads: apps,
			Instructions: uint64(k + 1), Simpoints: 1, Configs: mechs}
		if err := d.Validate(); err != nil {
			return plan, err
		}
		plan.prepopulate = append(plan.prepopulate, d)
		for _, app := range apps {
			for _, cs := range mechs {
				job, err := newDaemonJob(app, cs, d.Instructions, true)
				if err != nil {
					return plan, err
				}
				plan.jobs = append(plan.jobs, job)
			}
		}
	}
	type pair struct {
		app string
		cs  experiments.ConfigSpec
	}
	var cold []pair
	for _, app := range apps {
		for _, cs := range mechs {
			cold = append(cold, pair{app, cs})
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	for i, c := range cold {
		job, err := newDaemonJob(c.app, c.cs, coldInstrs+uint64(i), false)
		if err != nil {
			return plan, err
		}
		plan.jobs = append(plan.jobs, job)
	}
	rng.Shuffle(len(plan.jobs), func(i, j int) { plan.jobs[i], plan.jobs[j] = plan.jobs[j], plan.jobs[i] })
	return plan, nil
}

// newDaemonJob builds the single-cell job for (app, cs), instrs long
// with no warm-up. The descriptor is named after its cell, so every
// job is a distinct descriptor (the daemon dedups identical ones).
func newDaemonJob(app string, cs experiments.ConfigSpec, instrs uint64, warm bool) (daemonJob, error) {
	d := &experiments.Descriptor{Name: fmt.Sprintf("udpbench-%s-%s-%d", app, cs.Label, instrs),
		Workloads: []string{app}, Instructions: instrs, Simpoints: 1, Configs: []experiments.ConfigSpec{cs}}
	if err := d.Validate(); err != nil {
		return daemonJob{}, err
	}
	desc, err := json.Marshal(d)
	if err != nil {
		return daemonJob{}, err
	}
	return daemonJob{desc: desc, key: experiments.CellKey(d, app, cs),
		cfg: experiments.CellConfig(d, app, cs), warm: warm}, nil
}

// daemon is a running in-process udpsimd.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
	// refs are the warm cells' results as the in-process engine
	// computed them during set-up, by cache key.
	refs map[string]sim.Result
}

// startDaemon is the workload's set-up: it simulates the warm cells
// through the in-process engine into a fresh store at dir, drops the
// engine's in-memory cache so the daemon must read the store, and
// starts udpsimd (default flags) over that store, returning once
// /readyz answers.
func startDaemon(dir string, plan daemonPlan) (*daemon, error) {
	experiments.FlushResultCache()
	pre, err := serve.OpenStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	refs := map[string]sim.Result{}
	for _, d := range plan.prepopulate {
		rs, err := experiments.RunDescriptorObserved(d, nil, benchWorkers, experiments.Options{Store: pre})
		if err != nil {
			return nil, fmt.Errorf("pre-populating the store: %w", err)
		}
		for i, r := range rs {
			refs[experiments.CellKey(d, r.Workload, d.Configs[i%len(d.Configs)])] = r.Result
		}
	}
	experiments.FlushResultCache()

	st, err := serve.OpenStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	// udpsimd's flag defaults: -workers 1 -queue 64 -interval 10000.
	srv := serve.NewServer(serve.ServerConfig{Store: st, Workers: 1, MaxQueue: 64, Interval: 10_000})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing was queued; this stops the scheduler
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d := &daemon{srv: srv, hs: hs, served: make(chan struct{}), base: "http://" + ln.Addr().String(), refs: refs}
	go func() {
		defer close(d.served)
		// Serve returns http.ErrServerClosed once stop shuts it down.
		_ = hs.Serve(ln)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.New(d.base, nil).WaitReady(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// stop drains the daemon, closes its listener and waits for the
// server goroutine. The load has finished by now, so draining has
// nothing to cancel and a timeout could only cut cleanup short.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx)
	_ = d.hs.Shutdown(ctx)
	<-d.served
}

// newClient is one load-generating client: its own connection (the
// closed loop keeps at most one request in flight) and no retries, so
// a refused (429) job counts as failed.
func (d *daemon) newClient(name string) *client.Client {
	c := client.New(d.base, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	c.Name = name
	c.MaxAttempts = 1
	return c
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	latency time.Duration // submit → terminal event
	err     error
}

// load runs the closed loop: clients take jobs in plan order until the
// list is exhausted.
func (d *daemon) load(jobs []daemonJob) ([]jobOutcome, time.Duration) {
	outs := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < benchWorkers; c++ {
		cl := d.newClient(fmt.Sprintf("udpbench-%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i] = submitAndWait(cl, jobs[i].desc)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

func submitAndWait(cl *client.Client, desc []byte) jobOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	v, err := cl.Submit(ctx, desc, client.SubmitOptions{})
	if err != nil {
		return jobOutcome{err: err}
	}
	final, err := cl.Wait(ctx, v.ID)
	out := jobOutcome{latency: time.Since(start), err: err}
	if err == nil && final.State != serve.JobDone {
		out.err = fmt.Errorf("job %s ended %s: %s", v.ID, final.State, final.Error)
	}
	return out
}

// verifyJob checks one completed job's stored result: the store must
// hold it under the job's key, it must pass the correctness gate, and
// a warm cell must equal the engine's own result for that key.
func verifyJob(job daemonJob, sr serve.StoredResult, refs map[string]sim.Result) error {
	if sr.Key != job.key {
		return fmt.Errorf("stored under key %q, want %q", sr.Key, job.key)
	}
	if err := checkCell(job.cfg, sr.Result, 0); err != nil {
		return err
	}
	if !job.warm {
		return nil
	}
	ref, ok := refs[job.key]
	if !ok {
		return fmt.Errorf("warm cell %s has no engine result", job.key)
	}
	got, err1 := json.Marshal(sr.Result)
	want, err2 := json.Marshal(ref)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if string(got) != string(want) {
		return errors.New("daemon result differs from the in-process engine's")
	}
	return nil
}

// daemonPass is one set-up, load and verification of the plan.
type daemonPass struct {
	setup    time.Duration
	wall     time.Duration
	outs     []jobOutcome
	results  []sim.Result // per job, zero when the job failed
	failures []error      // per job
	scrape   []client.MetricSample
	// simTime is the warm-up plus measured host time of each simulated
	// job, by trace ID; warmup and measure are its totals.
	simTime         map[string]time.Duration
	warmup, measure time.Duration
	attr            attribution // the load's CPU profile, when profiled
}

// runDaemonPass sets up a fresh store and daemon under dir, runs the
// load (under the CPU profiler when profileAs names the workload),
// then fetches and verifies every job's result. A job fails when it
// errors, is refused, or its result fails verifyJob.
func runDaemonPass(dir string, plan daemonPlan, profileAs string) (daemonPass, error) {
	var p daemonPass
	start := time.Now()
	d, err := startDaemon(dir, plan)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(start)
	defer d.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	probe := d.newClient("udpbench-probe")
	before, err := probe.Metrics(ctx)
	if err != nil {
		return p, err
	}
	run := func() { p.outs, p.wall = d.load(plan.jobs) }
	if profileAs == "" {
		run()
	} else if p.attr, err = profiled(profileAs, run); err != nil {
		return p, err
	}
	after, err := probe.Metrics(ctx)
	if err != nil {
		return p, err
	}
	p.scrape = metricsDelta(before, after)

	p.results = make([]sim.Result, len(plan.jobs))
	p.failures = make([]error, len(plan.jobs))
	for i, job := range plan.jobs {
		if err := p.outs[i].err; err != nil {
			p.failures[i] = err
			continue
		}
		sr, err := probe.Result(ctx, serve.ResultAddr(job.key))
		if err == nil {
			err = verifyJob(job, sr, d.refs)
		}
		if err != nil {
			p.failures[i] = err
			continue
		}
		p.results[i] = sr.Result
	}

	p.simTime = map[string]time.Duration{}
	for _, sp := range d.srv.Spans() {
		dur := sp.End.Sub(sp.Start)
		switch sp.Name {
		case "warmup":
			p.warmup += dur
		case "measure":
			p.measure += dur
		default:
			continue
		}
		p.simTime[sp.Trace] += dur
	}
	return p, nil
}

// latencies splits a pass's successful job latencies (ms) into warm
// and cold.
func (p daemonPass) latencies(plan daemonPlan) (warm, cold []float64) {
	for i, job := range plan.jobs {
		if p.failures[i] != nil {
			continue
		}
		ms := float64(p.outs[i].latency.Nanoseconds()) / 1e6
		if job.warm {
			warm = append(warm, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	return warm, cold
}

// metricsDelta subtracts one /metrics scrape from a later one, series
// by series (counters and histogram buckets; gauges become changes).
func metricsDelta(before, after []client.MetricSample) []client.MetricSample {
	key := func(s client.MetricSample) string {
		labels := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		return s.Name + "{" + strings.Join(labels, ",") + "}"
	}
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[key(s)] += s.Value
	}
	out := make([]client.MetricSample, 0, len(after))
	for _, s := range after {
		s.Value -= prev[key(s)]
		out = append(out, s)
	}
	return out
}

// histPercentile is a /metrics histogram's p-quantile (an upper
// bucket bound) under the same ≥minBeyond-samples rule as percentile.
func histPercentile(samples []client.MetricSample, name string, labels map[string]string, p float64) (float64, error) {
	n, _ := client.MetricValue(samples, name+"_count", labels)
	if n*(1-p) < minBeyond-1e-9 {
		return 0, fmt.Errorf("%s p%g: %v samples, need %v beyond it", name, p*100, n, minBeyond)
	}
	v, ok := client.HistogramPercentile(samples, name, labels, p)
	if !ok {
		return 0, fmt.Errorf("%s: no histogram", name)
	}
	return v, nil
}

// runDaemonWorkload runs daemon-mixed: one pass untraced, plus a
// traced pass over a fresh store and daemon when tracing.
func runDaemonWorkload(rc runConfig) (outcome, error) {
	plan, err := planDaemon(rc.seed)
	if err != nil {
		return outcome{}, err
	}
	return runDaemon(rc, plan)
}

func runDaemon(rc runConfig, plan daemonPlan) (outcome, error) {
	var cold int
	for _, j := range plan.jobs {
		if !j.warm {
			cold++
		}
	}
	rc.report("workload %s: %d jobs (%d warm, %d cold), seed %d", rc.workload, len(plan.jobs), len(plan.jobs)-cold, cold, rc.seed)

	// Generate every image once, up front, so that every set-up
	// repetition does the same work: pre-population and daemon start.
	t := time.Now()
	for _, name := range workload.Names {
		if _, err := sim.SharedImage(workload.MustByName(name)); err != nil {
			return outcome{}, err
		}
	}
	imageGen := time.Since(t)

	// The set-up repetitions before the measured one start and stop a
	// daemon over a store of their own.
	var setups []float64
	for rep := 0; rep < daemonSetupReps-1; rep++ {
		dir := filepath.Join(rc.work, fmt.Sprintf("setup-%d", rep))
		start := time.Now()
		d, err := startDaemon(dir, plan)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d.stop()
		_ = os.RemoveAll(dir) // scratch; the run's work directory is removed at exit anyway
		runtime.GC()
	}

	out := outcome{e2e: metricSet{}, layer: metricSet{}}
	var digests []string
	judge := func(p daemonPass) {
		out.attempted += len(plan.jobs)
		for i, err := range p.failures {
			if err != nil {
				out.failed++
				rc.report("FAIL job %d (%s): %v", i, plan.jobs[i].key, err)
			}
		}
		digest, err := digestResults(p.results)
		if err != nil {
			out.problems = append(out.problems, "digest: "+err.Error())
		}
		digests = append(digests, digest)
		// Every cold cell, and nothing else, must miss the engine's
		// cache: a warm cell that simulated means the store lost it.
		if misses, _ := client.MetricValue(p.scrape, "udpsim_cache_misses", nil); int(misses) != cold {
			out.problems = append(out.problems, fmt.Sprintf("engine cache misses %v, want %d (the cold cells)", misses, cold))
		}
	}

	p, err := runDaemonPass(filepath.Join(rc.work, "measured"), plan, "")
	if err != nil {
		return outcome{}, err
	}
	judge(p)
	setups = append(setups, p.setup.Seconds())

	var coldResults []sim.Result
	var simInstrs float64
	for i, job := range plan.jobs {
		if !job.warm && p.failures[i] == nil {
			coldResults = append(coldResults, p.results[i])
			simInstrs += float64(job.cfg.WarmupInstructions + p.results[i].Instructions)
		}
	}
	wall := p.wall.Seconds()
	out.e2e["wall_s"] = wall
	out.e2e["sim_minstr_per_s"] = simInstrs / wall / 1e6
	out.e2e["jobs_per_s"] = float64(len(plan.jobs)) / wall
	out.e2e["setup_s"] = median(setups)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.e2e["pass_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	rc.report("digest %s", digests[0])
	rc.report("wall_s %.3f for %d jobs (%.1f jobs/s), setup_s %.3f (median of %d)",
		wall, len(plan.jobs), out.e2e["jobs_per_s"], out.e2e["setup_s"], len(setups))
	if !rc.trace {
		warm, cold := p.latencies(plan)
		latencyPercentiles(rc, metricSet{}, warm, cold)
		return out, nil
	}

	traced, err := runDaemonPass(filepath.Join(rc.work, "traced"), plan, rc.workload)
	if err != nil {
		return outcome{}, err
	}
	judge(traced)
	if digests[1] != digests[0] {
		out.problems = append(out.problems, fmt.Sprintf("traced digest %s differs from untraced %s", digests[1], digests[0]))
	}

	// Every per-layer metric comes from the traced pass.
	l := out.layer
	layerShares(l, traced.attr)
	warmLat, coldLat := traced.latencies(plan)
	out.problems = append(out.problems, latencyPercentiles(rc, l, warmLat, coldLat)...)
	hist := func(name, series string, labels map[string]string, scale float64) {
		v, err := histPercentile(traced.scrape, series, labels, 0.5)
		if err != nil {
			out.problems = append(out.problems, name+": "+err.Error())
		}
		l[name] = v * scale
	}
	hist("serve.submit_ms_p50", "udpsimd_http_request_duration_us", map[string]string{"route": "/v1/jobs"}, 1e-3)
	hist("serve.queue_wait_us_p50", "udpsimd_queue_wait_us", nil, 1)
	hist("serve.store_read_us_p50", "udpsim_store_read_us", nil, 1)
	hist("serve.store_write_us_p50", "udpsim_store_write_us", nil, 1)
	hits, _ := client.MetricValue(traced.scrape, "udpsim_store_hits", nil)
	misses, _ := client.MetricValue(traced.scrape, "udpsim_store_misses", nil)
	l["serve.store_hit_ratio"] = hits / max(hits+misses, 1)
	l["serve.jobs_rejected"], _ = client.MetricValue(traced.scrape, "udpsimd_jobs_rejected", nil)
	l["experiments.cache_misses"], _ = client.MetricValue(traced.scrape, "udpsim_cache_misses", nil)

	var tracedCold []sim.Result
	var cycles uint64
	for i, job := range plan.jobs {
		if !job.warm && traced.failures[i] == nil {
			tracedCold = append(tracedCold, traced.results[i])
			cycles += traced.results[i].Cycles
		}
	}
	simCounts(l, tracedCold)
	l["experiments.udp_speedup_pct_avg"] = 0 // no paired grid in this workload
	l["workload.image_gen_s"] = imageGen.Seconds()
	l["sim.warmup_s"] = traced.warmup.Seconds()
	l["sim.measure_s"] = traced.measure.Seconds()
	l["sim.host_ns_per_cycle"] = float64(traced.measure.Nanoseconds()) / float64(max(cycles, 1))
	var busy, maxCell time.Duration
	for _, d := range traced.simTime {
		busy += d
		maxCell = max(maxCell, d)
	}
	l["experiments.cell_s_max"] = maxCell.Seconds()
	// The daemon runs one job at a time (-workers 1).
	l["experiments.worker_idle_pct"] = 100 * (1 - busy.Seconds()/traced.wall.Seconds())
	l["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/wall - 1)
	rc.report("traced wall_s %.3f vs untraced %.3f", traced.wall.Seconds(), wall)
	return out, nil
}

// latencyPercentiles records and reports the warm and cold submit→done
// percentiles, returning any that lack the samples to be claimed.
func latencyPercentiles(rc runConfig, l metricSet, warm, cold []float64) (problems []string) {
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"serve.warm_latency_ms_p50", warm, 0.50},
		{"serve.warm_latency_ms_p99", warm, 0.99},
		{"serve.cold_latency_ms_p50", cold, 0.50},
		{"serve.cold_latency_ms_p90", cold, 0.90},
	} {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			problems = append(problems, q.name+": "+err.Error())
		}
		l[q.name] = v
		rc.report("%s %.3f ms (n=%d)", q.name, v, len(q.xs))
	}
	return problems
}
