package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"udpsim/internal/experiments"
	"udpsim/internal/isa"
	"udpsim/internal/sim"
	"udpsim/internal/workload"
)

// gridApps are the application sets of the two Fig. 13 workloads:
// frontend-bound apps, whose L1D MSHR file rejects under one demand
// per instruction, and data-path-bound apps, where it rejects 6-33.
var gridApps = map[string][]string{
	"fig13-frontend": {"verilator", "interpreter-dispatch"},
	"fig13-datapath": {"xgboost", "mysql"},
}

// paperUDPSpeedup are the UDP speedups the paper's Fig. 13 states for
// apps in these grids (the paper has no interpreter-dispatch, and its
// mysql bar is not quoted in the text).
var paperUDPSpeedup = map[string]float64{"xgboost": 16.1, "verilator": 0}

// paperUDPAverage is the paper's Fig. 13 UDP average over its own app set.
const paperUDPAverage = 3.6

// gridRegions is how many simpoint regions the seed chooses among.
const gridRegions = 8

// gridSetupReps is how many times a grid run repeats its set-up;
// setup_s is the median.
const gridSetupReps = 5

// gridSalt maps a seed to the seed salt of one simpoint region. Seed 0
// picks region 0, the region `figures -fig 13` simulates.
func gridSalt(seed int64) uint64 {
	r := seed % gridRegions
	if r < 0 {
		r += gridRegions
	}
	return sim.SimpointSalt(int(r))
}

// fig13Descriptor is the Fig. 13 grid over apps: the FDIP-32 baseline
// then experiments.UDPSeries, at cmd/figures' default fidelity.
func fig13Descriptor(apps []string, o experiments.Options) *experiments.Descriptor {
	d := &experiments.Descriptor{
		Name: "fig13", Workloads: apps, Simpoints: 1,
		Instructions: o.Instructions, Warmup: o.Warmup,
		Configs: []experiments.ConfigSpec{{Label: "baseline", Mechanism: string(sim.MechBaseline)}},
	}
	for _, s := range experiments.UDPSeries {
		cs := experiments.ConfigSpec{Label: s, Mechanism: s}
		if s == "icache-40k" {
			cs = experiments.ConfigSpec{Label: s, Mechanism: string(sim.MechBaseline), ICacheKB: 40}
		}
		d.Configs = append(d.Configs, cs)
	}
	return d
}

// gridCells lists the grid's machine configurations, app-major, every
// cell in the simpoint region of salt.
func gridCells(d *experiments.Descriptor, salt uint64) []sim.Config {
	var cells []sim.Config
	for _, app := range d.Workloads {
		for _, cs := range d.Configs {
			cfg := experiments.CellConfig(d, app, cs)
			cfg.SeedSalt = salt
			cells = append(cells, cfg)
		}
	}
	return cells
}

// cellTiming is one cell's host time: construction plus run (busy),
// and the warm-up and measured phases within the run.
type cellTiming struct {
	busy, warmup, measure time.Duration
}

// gridPass is one complete simulation of the grid.
type gridPass struct {
	wall    time.Duration
	results []sim.Result
	errs    []error
	timing  []cellTiming
}

// runGridPass simulates every cell on the experiment engine's worker
// pool, in grid order.
func runGridPass(cells []sim.Config) gridPass {
	p := gridPass{
		results: make([]sim.Result, len(cells)),
		errs:    make([]error, len(cells)),
		timing:  make([]cellTiming, len(cells)),
	}
	start := time.Now()
	// Cell errors are kept per cell in p.errs; fn never fails the pool.
	_ = experiments.ForEachCtx(context.Background(), len(cells), benchWorkers, func(i int) error {
		p.results[i], p.timing[i], p.errs[i] = runCell(cells[i])
		return nil
	})
	p.wall = time.Since(start)
	return p
}

// runCell builds and runs one machine exactly as the engine's per-cell
// path does (shared image, one region, single-region aggregate) and
// gates its result. A panic fails the cell, not the run.
func runCell(cfg sim.Config) (r sim.Result, t cellTiming, err error) {
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
		t.busy = time.Since(start)
	}()
	prog, err := sim.SharedImage(cfg.Workload)
	if err != nil {
		return r, t, err
	}
	m, err := sim.NewMachineWithProgram(cfg, prog)
	if err != nil {
		return r, t, err
	}
	var phase string
	var phaseStart time.Time
	var carriedIn uint64
	m.SetPhaseHook(func(next string) {
		if next == "measure" {
			carriedIn = unclassifiedPrefetches(m, prog)
		}
		now := time.Now()
		switch phase {
		case "warmup":
			t.warmup = now.Sub(phaseStart)
		case "measure":
			t.measure = now.Sub(phaseStart)
		}
		phase, phaseStart = next, now
	})
	if r, err = m.RunCtx(nil); err != nil {
		return r, t, err
	}
	r = sim.Aggregate([]sim.Result{r})
	return r, t, checkCell(cfg, r, carriedIn)
}

// imageSlackLines extends the line scan of unclassifiedPrefetches past
// the image's last instruction, where sequential prefetching can run.
const imageSlackLines = 64

// unclassifiedPrefetches counts the prefetches the frontend has emitted
// but not yet classified useful or useless: image lines resident in the
// icache with their prefetch bit set, plus prefetch fills in flight
// that no demand has merged into. Counted when warm-up ends, it is how
// many classifications the measured region may make without a
// measured emission.
func unclassifiedPrefetches(m *sim.Machine, prog *workload.Program) uint64 {
	ic, mshrs := m.FE.ICache(), m.FE.MSHRs()
	end := workload.ImageBase + isa.Addr(prog.FootprintBytes()+imageSlackLines*isa.LineBytes)
	var n uint64
	for line := workload.ImageBase; line < end; line += isa.LineBytes {
		if ic.PrefetchBit(line) {
			n++
		}
		if e := mshrs.Lookup(line); e != nil && e.Prefetch && !e.DemandMerged {
			n++
		}
	}
	return n
}

// gridSetup builds every image and machine of the grid once — the work
// before a grid's first simulated cycle — and returns its time and the
// image-generation share. shared builds images through sim.SharedImage,
// leaving them cached for the measured passes; otherwise they are
// generated afresh so each repetition does the same work. A machine
// that cannot be built is left to fail its cell in the measured pass.
func gridSetup(cells []sim.Config, shared bool) (total, imageGen time.Duration, err error) {
	start := time.Now()
	progs := map[string]*workload.Program{}
	for _, cfg := range cells {
		prog, ok := progs[cfg.Workload.Name]
		if !ok {
			t := time.Now()
			if shared {
				prog, err = sim.SharedImage(cfg.Workload)
			} else {
				prog, err = workload.Generate(cfg.Workload)
			}
			if err != nil {
				return 0, 0, err
			}
			imageGen += time.Since(t)
			progs[cfg.Workload.Name] = prog
		}
		_, _ = sim.NewMachineWithProgram(cfg, prog)
	}
	return time.Since(start), imageGen, nil
}

// runGridWorkload runs a Fig. 13 grid workload. Untraced, it repeats
// the grid while another pass should end within the measured time (at
// least once); traced, it runs the grid once plain and once under the
// CPU profiler.
func runGridWorkload(rc runConfig) (outcome, error) {
	return runGrid(rc, fig13Descriptor(gridApps[rc.workload], experiments.DefaultOptions()))
}

func runGrid(rc runConfig, d *experiments.Descriptor) (outcome, error) {
	salt := gridSalt(rc.seed)
	cells := gridCells(d, salt)
	rc.report("workload %s: %d cells (%s × %d configs), %d+%d instructions, seed %d -> salt %d",
		rc.workload, len(cells), strings.Join(d.Workloads, ","), len(d.Configs), d.Warmup, d.Instructions, rc.seed, salt)

	var setups, imageGens []float64
	for rep := 0; rep < gridSetupReps; rep++ {
		total, img, err := gridSetup(cells, rep == gridSetupReps-1)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, total.Seconds())
		imageGens = append(imageGens, img.Seconds())
		// Set-up garbage (discarded images and machines) must not
		// raise the measured passes' memory high-water mark.
		runtime.GC()
	}

	out := outcome{e2e: metricSet{}, layer: metricSet{}}
	var digests []string
	judge := func(p gridPass) {
		out.attempted += len(cells)
		for i, err := range p.errs {
			if err != nil {
				out.failed++
				rc.report("FAIL %s/%s: %v", cells[i].Workload.Name, d.Configs[i%len(d.Configs)].Label, err)
			}
		}
		digest, err := digestResults(p.results)
		if err != nil {
			out.problems = append(out.problems, "digest: "+err.Error())
		}
		digests = append(digests, digest)
	}

	var passes []gridPass
	start := time.Now()
	for {
		p := runGridPass(cells)
		judge(p)
		passes = append(passes, p)
		// At the mean pass time so far, would another pass overrun?
		elapsed := time.Since(start)
		if rc.trace || elapsed+elapsed/time.Duration(len(passes)) > rc.seconds {
			break
		}
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	wall := median(walls)

	var traced gridPass
	var attr attribution
	if rc.trace {
		var err error
		if attr, err = profiled(rc.workload, func() { traced = runGridPass(cells) }); err != nil {
			return outcome{}, err
		}
		judge(traced)
	}
	for i, dg := range digests {
		if dg != digests[0] {
			out.problems = append(out.problems, fmt.Sprintf("pass %d digest %s differs from pass 0's %s", i, dg, digests[0]))
		}
	}

	first := passes[0]
	var simInstrs float64
	for i, r := range first.results {
		simInstrs += float64(cells[i].WarmupInstructions + r.Instructions)
	}
	out.e2e["wall_s"] = wall
	out.e2e["sim_minstr_per_s"] = simInstrs / wall / 1e6
	out.e2e["jobs_per_s"] = float64(len(cells)) / wall
	out.e2e["setup_s"] = median(setups)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.e2e["pass_frac"] = 1 - float64(out.failed)/float64(out.attempted)

	speedups := fig13Rows(rc, d, first.results)
	rc.report("digest %s", digests[0])
	rc.report("wall_s %.3f (median of %d grid passes %.3f), setup_s %.3f (median of %.3f), %.3f Minstr/s",
		wall, len(passes), walls, out.e2e["setup_s"], setups, out.e2e["sim_minstr_per_s"])

	if rc.trace {
		l := out.layer
		layerShares(l, attr)
		simCounts(l, first.results)
		zeroServe(l)
		l["experiments.cache_misses"] = 0 // the grid bypasses the result cache
		l["experiments.udp_speedup_pct_avg"] = speedups
		l["workload.image_gen_s"] = median(imageGens)
		var busy, warm, meas, maxCell time.Duration
		for _, t := range traced.timing {
			busy += t.busy
			warm += t.warmup
			meas += t.measure
			maxCell = max(maxCell, t.busy)
		}
		var cycles uint64
		for _, r := range traced.results {
			cycles += r.Cycles
		}
		l["sim.warmup_s"] = warm.Seconds()
		l["sim.measure_s"] = meas.Seconds()
		l["sim.host_ns_per_cycle"] = float64(meas.Nanoseconds()) / float64(max(cycles, 1))
		l["experiments.cell_s_max"] = maxCell.Seconds()
		l["experiments.worker_idle_pct"] = 100 * (1 - busy.Seconds()/(benchWorkers*traced.wall.Seconds()))
		l["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/wall - 1)
		rc.report("traced wall_s %.3f vs untraced %.3f", traced.wall.Seconds(), wall)
	}
	return out, nil
}

// fig13Rows prints the grid's Fig. 13 rows beside the paper's values
// and returns the average UDP speedup in percent.
func fig13Rows(rc runConfig, d *experiments.Descriptor, rs []sim.Result) float64 {
	stride := len(d.Configs)
	rc.report("Fig. 13 (IPC speedup over FDIP-32) beside the paper: the difference is the reproduction gap, not an error bar")
	head := fmt.Sprintf("%-22s", "app")
	for _, cs := range d.Configs[1:] {
		head += fmt.Sprintf(" %13s", cs.Label)
	}
	rc.report("%s %13s", head, "paper udp")
	var sum float64
	for ai, app := range d.Workloads {
		base := rs[ai*stride]
		row := fmt.Sprintf("%-22s", app)
		for si, cs := range d.Configs[1:] {
			sp := 100 * rs[ai*stride+1+si].Speedup(base)
			row += fmt.Sprintf(" %+12.1f%%", sp)
			if cs.Label == "udp" {
				sum += sp
			}
		}
		paper := "n/a"
		if v, ok := paperUDPSpeedup[app]; ok {
			paper = fmt.Sprintf("%+.1f%%", v)
		}
		rc.report("%s %13s", row, paper)
	}
	avg := sum / float64(len(d.Workloads))
	rc.report("%-22s %+12.1f%%  (paper: %+.1f%% over all its apps)", "udp average", avg, paperUDPAverage)
	return avg
}
