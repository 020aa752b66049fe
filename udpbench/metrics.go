package main

import (
	"fmt"
	"sort"
	"strings"

	"udpsim/internal/sim"
)

// metricDef names one reported metric. BENCHMARK.json at the repo root
// lists the same metrics (TestBenchmarkJSONMatchesTables keeps the two
// in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload on untraced runs. They are the ones every workload
// can measure: the daemon-only latency percentiles are per-layer
// serve.* metrics, and fail_frac is the top-level failed/attempted
// pair (pass_frac = 1 − fail_frac is the never-zero form).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"pass_frac", "ratio", "higher"},
}

// hostLayers are the layers whose CPU-profile self-time share is
// reported as <layer>.host_pct.
var hostLayers = []string{
	"backend", "cache", "memory", "frontend", "bp", "btb", "core", "eip",
	"workload", "sim", "experiments", "serve", "obs", "runtime",
}

// hotFuncs are ROADMAP item 1's hot spots and the Machine.Step phases:
// metric name → profiled function, cumulative (anywhere on the stack)
// or flat (leaf frame only).
var hotFuncs = []struct {
	metric, fn string
	cum        bool
}{
	{"backend.issue.cum_pct", "udpsim/internal/backend.(*Backend).issue", true},
	{"memory.DataRequest.cum_pct", "udpsim/internal/memory.(*Hierarchy).DataRequest", true},
	{"cache.MSHRFile.Lookup.pct", "udpsim/internal/cache.(*MSHRFile).Lookup", false},
	{"cache.log2.pct", "udpsim/internal/cache.log2", false},
	{"frontend.Cycle.cum_pct", "udpsim/internal/frontend.(*Frontend).Cycle", true},
	{"memory.Tick.cum_pct", "udpsim/internal/memory.(*Hierarchy).Tick", true},
}

// perLayer are the traced run's metrics, reported by every workload; a
// layer a workload does not exercise reports 0 (README.md says which).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_pct", "%", "lower"})
	}
	for _, h := range hotFuncs {
		defs = append(defs, metricDef{h.metric, "%", "lower"})
	}
	return append(defs, []metricDef{
		// Wall-clock spans.
		{"workload.image_gen_s", "s", "lower"},
		{"sim.warmup_s", "s", "lower"},
		{"sim.measure_s", "s", "lower"},
		{"sim.host_ns_per_cycle", "ns", "lower"},
		{"experiments.cell_s_max", "s", "lower"},
		{"experiments.worker_idle_pct", "%", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		// Daemon: client-side latencies and /metrics deltas.
		{"serve.warm_latency_ms_p50", "ms", "lower"},
		{"serve.warm_latency_ms_p99", "ms", "lower"},
		{"serve.cold_latency_ms_p50", "ms", "lower"},
		{"serve.cold_latency_ms_p90", "ms", "lower"},
		{"serve.submit_ms_p50", "ms", "lower"},
		{"serve.queue_wait_us_p50", "us", "lower"},
		{"serve.store_read_us_p50", "us", "lower"},
		{"serve.store_write_us_p50", "us", "lower"},
		{"serve.store_hit_ratio", "ratio", "higher"},
		{"serve.jobs_rejected", "count", "lower"},
		{"experiments.cache_misses", "count", "lower"},
		// Simulated counts, measured region only.
		{"frontend.icache_mpki", "mpki", "lower"},
		{"frontend.prefetch_useful_ratio", "ratio", "higher"},
		{"frontend.prefetches_pki", "pki", "lower"},
		{"frontend.lost_instrs_pki", "pki", "lower"},
		{"frontend.ftq_mean_occupancy", "entries", "higher"},
		{"bp.branch_mpki", "mpki", "lower"},
		{"btb.hit_rate", "ratio", "higher"},
		{"memory.l1d_demand_retries_pki", "pki", "lower"},
		{"memory.l1d_merges_pki", "pki", "lower"},
		{"memory.prefetch_drops_pki", "pki", "lower"},
		{"memory.dram_queue_cycles_pki", "cycles/kinstr", "lower"},
		{"backend.ipc", "instr/cycle", "higher"},
		{"sim.cycles", "count", "lower"},
		{"experiments.udp_speedup_pct_avg", "%", "higher"},
	}...)
}()

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name.
type metricSet map[string]float64

// emit returns exactly the metrics of defs with their units; a missing
// or unknown name is a harness bug.
func (m metricSet) emit(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range m {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not declared", extra)
	}
	return out, nil
}

// layerShares records the profile's per-layer and hot-function shares.
func layerShares(l metricSet, a attribution) {
	for _, layer := range hostLayers {
		l[layer+".host_pct"] = a.pct(a.layer[layer])
	}
	for _, h := range hotFuncs {
		if h.cum {
			l[h.metric] = a.pct(a.cum[h.fn])
		} else {
			l[h.metric] = a.pct(a.flat[h.fn])
		}
	}
}

// zeroServe records the daemon metrics of a workload without a daemon.
func zeroServe(l metricSet) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "serve.") && !strings.HasSuffix(d.name, ".host_pct") {
			l[d.name] = 0
		}
	}
}

// simCounts records measured-region statistics summed over results:
// every rate divides measured counts by measured instructions or
// cycles, never by totals that include warm-up.
func simCounts(l metricSet, rs []sim.Result) {
	var instrs, cycles, misses, emitted, useful, useless, lost, recov float64
	var retries, merges, drops, dramQ, occCycles, btbInstrs float64
	for _, r := range rs {
		in, cy := float64(r.Instructions), float64(r.Cycles)
		instrs += in
		cycles += cy
		misses += float64(r.IcacheMisses)
		emitted += float64(r.PrefetchesEmitted)
		useful += float64(r.PrefetchUseful)
		useless += float64(r.PrefetchUseless)
		lost += float64(r.LostInstrs)
		recov += float64(r.Recoveries)
		retries += float64(r.Mem.L1D.Retries)
		merges += float64(r.Mem.L1D.Merges)
		drops += float64(r.Mem.PrefetchDrops() + r.Mem.DRAMPrefetchDrops)
		dramQ += float64(r.Mem.DRAMQueueCycles)
		occCycles += r.MeanFTQOcc * cy
		btbInstrs += r.BTBHitRate * in
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pki := func(x float64) float64 { return 1000 * ratio(x, instrs) }
	l["frontend.icache_mpki"] = pki(misses)
	l["frontend.prefetch_useful_ratio"] = ratio(useful, useful+useless)
	l["frontend.prefetches_pki"] = pki(emitted)
	l["frontend.lost_instrs_pki"] = pki(lost)
	l["frontend.ftq_mean_occupancy"] = ratio(occCycles, cycles)
	l["bp.branch_mpki"] = pki(recov)
	l["btb.hit_rate"] = ratio(btbInstrs, instrs)
	l["memory.l1d_demand_retries_pki"] = pki(retries)
	l["memory.l1d_merges_pki"] = pki(merges)
	l["memory.prefetch_drops_pki"] = pki(drops)
	l["memory.dram_queue_cycles_pki"] = pki(dramQ)
	l["backend.ipc"] = ratio(instrs, cycles)
	l["sim.cycles"] = cycles
}
