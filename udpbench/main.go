// Command udpbench is the repo's end-to-end benchmark. It regenerates
// the paper's Fig. 13 grid on two application sets — frontend-bound
// and data-path-bound — and drives an in-process udpsimd with a mix of
// warm (store-served) and cold (simulated) jobs, checks every result,
// and prints its metrics as one JSON object on the last line of
// standard output.
//
//	udpbench --workload fig13-datapath --seed 0 --seconds 20 --trace 0
//	udpbench steady --workload daemon-mixed --runs 5
//
// --trace 1 re-runs the measured work under a CPU profile and reports
// per-layer metrics instead of end-to-end ones. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"udpsim/internal/sim"
)

// benchWorkers bounds simulation workers and client connections: the
// benchmark machine has 2 cores.
const benchWorkers = 2

// runConfig is one invocation's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory (stores, profiles), inside the build dir
	quiet    bool   // suppress the human-readable report (tests)
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	// problems are failures of the run as a whole (a digest that did
	// not repeat, a counter that disagrees): they make the run
	// incorrect without being any one cell's fault.
	problems []string
	e2e      metricSet
	layer    metricSet
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (outcome, error){
	"fig13-frontend": runGridWorkload,
	"fig13-datapath": runGridWorkload,
	"daemon-mixed":   runDaemonWorkload,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "udpbench steady:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 0, "input seed (0 reproduces `figures -fig 13` for the grid workloads)")
		seconds = flag.Int("seconds", 20, "measured time per run; a grid always completes at least once")
		trace   = flag.Int("trace", 0, "1 = traced run: CPU profile and spans, per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "udpbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	work, err := os.MkdirTemp(buildDir(), "udpbench-work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)
	rc := runConfig{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: work}
	res, err := execute(run, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpbench:", err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload and builds the result line.
func execute(run func(runConfig) (outcome, error), rc runConfig) (result, error) {
	out, err := run(rc)
	if err != nil {
		return result{}, err
	}
	defs, set := endToEnd, out.e2e
	if rc.trace {
		defs, set = perLayer, out.layer
	}
	metrics, err := set.emit(defs)
	if err != nil {
		return result{}, err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "udpbench: check failed:", p)
	}
	return result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is where the benchmark keeps its scratch files: the build
// directory run.sh also compiles into, inside the checkout.
func buildDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// report prints a human-readable line (not the result line) unless quiet.
func (rc runConfig) report(format string, args ...any) {
	if !rc.quiet {
		fmt.Printf(format+"\n", args...)
	}
}

// checkCell is the per-cell correctness gate: a result is wrong when
// it retired less than its measured-instruction budget, counts more
// icache misses than accesses or more classified prefetches than it
// emitted, or beats the machine's width.
//
// Prefetches are classified when used or evicted, so the measured
// region also classifies prefetches emitted during warm-up and still
// unclassified when it began: carriedIn, counted at that instant. A
// run without warm-up carries in nothing.
func checkCell(cfg sim.Config, r sim.Result, carriedIn uint64) error {
	switch {
	case r.Instructions < cfg.MaxInstructions:
		return fmt.Errorf("retired %d of %d measured instructions", r.Instructions, cfg.MaxInstructions)
	case r.IcacheMisses > r.IcacheAccesses:
		return fmt.Errorf("icache misses %d exceed accesses %d", r.IcacheMisses, r.IcacheAccesses)
	case r.PrefetchUseful+r.PrefetchUseless > r.PrefetchesEmitted+carriedIn:
		return fmt.Errorf("useful %d + useless %d prefetches exceed %d emitted + %d carried in from warm-up",
			r.PrefetchUseful, r.PrefetchUseless, r.PrefetchesEmitted, carriedIn)
	case r.IPC > float64(cfg.Width):
		return fmt.Errorf("IPC %.3f exceeds width %d", r.IPC, cfg.Width)
	}
	return nil
}

// digestResults hashes results in order. Two runs with the same
// simulated statistics have the same digest, so a speed-only change
// can prove it moved no simulated number.
func digestResults(rs []sim.Result) (string, error) {
	h := sha256.New()
	for i, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("cell %d: %w", i, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// profilePath is where a traced run leaves its CPU profile for
// `go tool pprof`: next to the binary, one file per workload.
func profilePath(workload string) string {
	return filepath.Join(buildDir(), "udpbench-"+workload+".pprof")
}
