package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"udpsim/internal/serve/client"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json (repo root) and
// the metric tables the program emits in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmitRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "ms", "lower"}}
	if _, err := (metricSet{"a": 1}).emit(defs); err == nil {
		t.Error("missing metric b emitted")
	}
	if _, err := (metricSet{"a": 1, "b": 2, "c": 3}).emit(defs); err == nil {
		t.Error("undeclared metric c emitted")
	}
	out, err := (metricSet{"a": 1, "b": 2}).emit(defs)
	if err != nil || out["b"] != (metricValue{2, "ms"}) {
		t.Errorf("emit = %v, %v", out, err)
	}
}

func TestMetricsDeltaAndHistPercentile(t *testing.T) {
	bucket := func(le string, v float64) client.MetricSample {
		return client.MetricSample{Name: "x_us_bucket", Labels: map[string]string{"le": le}, Value: v}
	}
	count := func(v float64) client.MetricSample { return client.MetricSample{Name: "x_us_count", Value: v} }
	before := []client.MetricSample{bucket("1", 5), bucket("2", 5), bucket("+Inf", 5), count(5)}
	// 30 new observations: 5 at ≤1, 20 at ≤2, 5 above.
	after := []client.MetricSample{bucket("1", 10), bucket("2", 30), bucket("+Inf", 35), count(35)}
	d := metricsDelta(before, after)
	if v, err := histPercentile(d, "x_us", nil, 0.5); err != nil || v != 2 {
		t.Errorf("delta p50 = %v, %v; want 2", v, err)
	}
	if _, err := histPercentile(d, "x_us", nil, 0.9); err == nil {
		t.Error("p90 of 30 samples claimed (3 beyond it)")
	}
}
