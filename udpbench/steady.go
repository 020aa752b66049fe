package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady is the steadiness self-check: it runs one workload N times,
// each a fresh process with its own seed, and prints every metric's
// median, quartiles and interquartile spread as a share of the median
// — the figure BENCHMARK.json's bounds are checked against. A spread
// under a third of the bound is steady.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to repeat")
		runs     = fs.Int("runs", 5, "number of runs")
		seedBase = fs.Int64("seed-base", 1, "seed of the first run; run i uses seed-base+i")
		seconds  = fs.Int("seconds", 20, "--seconds for each run")
		trace    = fs.Int("trace", 0, "--trace for each run")
		spec     = fs.String("benchmark", "BENCHMARK.json", "benchmark spec holding the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok || *runs < 1 {
		return fmt.Errorf("need --workload (%s) and --runs >= 1", strings.Join(workloadNames(), ", "))
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := *seedBase + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i, seed, err)
		}
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d", i, seed, res.Correct, res.Attempted, res.Failed)
		if *trace == 0 {
			for _, m := range endToEnd {
				fmt.Printf(" %s=%.4g", m.name, res.Metrics[m.name].Value)
			}
		}
		fmt.Println()
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d) was not correct", i, seed)
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}

	bounds := map[string]float64{}
	if b, err := os.ReadFile(*spec); err == nil {
		var s struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &s); err != nil {
			return fmt.Errorf("%s: %w", *spec, err)
		}
		for _, m := range s.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %10s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict, bound := "", "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case spread < b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
		}
		fmt.Printf("%-36s %12.5g %12.5g %12.5g %10.4f %8s  %s %s\n", k, q1, q2, q3, spread, bound, units[k], verdict)
	}
	return nil
}
