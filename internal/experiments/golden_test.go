package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"udpsim/internal/sim"
)

// Golden files pin the results of fixed grids. Delete a file and run
// its test to regenerate it; a regeneration is a deliberate change to
// published numbers and must be called out.
const (
	goldenPath         = "testdata/golden_results.json"
	goldenPressurePath = "testdata/golden_pressure.json"
)

// TestGoldenResults pins every field of every sim.Result of a small
// fixed-fidelity grid — mysql and verilator × every registered
// mechanism × 2 simpoints — bit for bit. Any engine or model change
// that moves a single counter or the last bit of a float fails here.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d := &Descriptor{
		Name:         "golden",
		Workloads:    []string{"mysql", "verilator"},
		Instructions: 20_000,
		Warmup:       10_000,
		Simpoints:    2,
	}
	for _, m := range sim.Mechanisms() {
		d.Configs = append(d.Configs, ConfigSpec{Label: string(m), Mechanism: string(m)})
	}
	checkGolden(t, d, goldenPath, false)
}

// TestGoldenResultsMSHRPressure pins a grid run under MSHR pressure:
// xgboost and mysql × {baseline, udp, eip} with 4 L1D and 8 L2 MSHRs,
// so demands are rejected at the L1D (repeatedly, while its file stays
// full) and at the L2. The aggregate of several simpoints drops the
// memory and backend counters, so each simpoint region's own Result is
// pinned too: its retry, merge and MSHR counts are the rejection
// paths' direct record.
func TestGoldenResultsMSHRPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d := &Descriptor{
		Name:         "golden-pressure",
		Workloads:    []string{"xgboost", "mysql"},
		Instructions: 20_000,
		Warmup:       10_000,
		Simpoints:    2,
	}
	for _, m := range []string{"baseline", "udp", "eip"} {
		d.Configs = append(d.Configs, ConfigSpec{Label: m, Mechanism: m, L1DMSHRs: 4, L2MSHRs: 8})
	}
	checkGolden(t, d, goldenPressurePath, true)
}

// checkGolden runs d and compares every leaf of every result against
// the golden file at path, writing the file (and failing) when it is
// missing. With regions set, each cell's simpoint regions are also
// simulated on their own and pinned as "<workload>/<label>/region<i>".
func checkGolden(t *testing.T, d *Descriptor, path string, regions bool) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunDescriptor(d, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]string{}
	for _, r := range res {
		fields := map[string]string{}
		flattenFields("", reflect.ValueOf(r.Result), fields)
		got[r.Workload+"/"+r.Label] = fields
	}
	if regions {
		for _, w := range d.Workloads {
			for _, cs := range d.Configs {
				rs, _, err := sim.RunSimpointsCtx(context.Background(), CellConfig(d, w, cs), d.Simpoints, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					fields := map[string]string{}
					flattenFields("", reflect.ValueOf(r), fields)
					got[fmt.Sprintf("%s/%s/region%d", w, cs.Label, i)] = fields
				}
			}
		}
	}

	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote a fresh copy — review and commit it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cells := make([]string, 0, len(want))
	for c := range want {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		g, ok := got[c]
		if !ok {
			t.Errorf("%s: cell missing from the run", c)
			continue
		}
		for f, w := range want[c] {
			if g[f] != w {
				t.Errorf("%s: %s = %s, golden %s", c, f, g[f], w)
			}
		}
		for f := range g {
			if _, ok := want[c][f]; !ok {
				t.Errorf("%s: field %s not in the golden file", c, f)
			}
		}
	}
	for c := range got {
		if _, ok := want[c]; !ok {
			t.Errorf("%s: cell not in the golden file", c)
		}
	}
}

// flattenFields renders every leaf of v into out keyed by its field
// path. Floats are stored as their IEEE-754 bit pattern so NaNs and
// the last ulp round-trip exactly.
func flattenFields(path string, v reflect.Value, out map[string]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			flattenFields(joinPath(path, v.Type().Field(i).Name), v.Field(i), out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			out[path] = "nil"
			return
		}
		flattenFields(path, v.Elem(), out)
	case reflect.Slice, reflect.Array:
		out[joinPath(path, "len")] = fmt.Sprint(v.Len())
		for i := 0; i < v.Len(); i++ {
			flattenFields(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	case reflect.Float32, reflect.Float64:
		out[path] = fmt.Sprintf("%#016x", math.Float64bits(v.Float()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[path] = fmt.Sprint(v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[path] = fmt.Sprint(v.Int())
	case reflect.String:
		out[path] = fmt.Sprintf("%q", v.String())
	case reflect.Bool:
		out[path] = fmt.Sprint(v.Bool())
	default:
		panic(fmt.Sprintf("flattenFields: unhandled kind %s at %s", v.Kind(), path))
	}
}

func joinPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}
