package sim

import (
	"testing"

	"udpsim/internal/obs"
)

// benchStepMachine builds a warmed-up machine for the per-cycle hot-loop
// benchmarks: the image is shared, and the machine has run long enough
// that caches, predictors and the frontend's scratch pools are in
// steady state. o (nil is the production configuration of the parallel
// experiment grid) is attached before the warmup, so its ring buffer
// and trackers reach steady state too.
func benchStepMachine(b *testing.B, mech Mechanism, o *obs.Observer) *Machine {
	b.Helper()
	cfg := testConfig(mech)
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		b.Fatal(err)
	}
	if o != nil {
		m.AttachObserver(o)
	}
	// Warm to steady state so the benchmark measures the recurring
	// per-cycle cost, not cold caches or pool growth.
	m.RunInstructions(100_000)
	return m
}

// BenchmarkMachineStep measures the raw per-cycle cost of the assembled
// machine — the innermost loop every figure, sweep and experiment cell
// spins in. It must report 0 allocs/op: the parallel experiment engine
// scales with cores only if the hot loop never touches the garbage
// collector (TestMachineStepZeroAlloc gates this; CI fails on > 0).
func BenchmarkMachineStep(b *testing.B) {
	for _, mech := range []Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP} {
		b.Run(string(mech), func(b *testing.B) {
			m := benchStepMachine(b, mech, nil)
			warm := m.BE.Stats.Retired
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
			b.StopTimer()
			// Only the timed cycles' retires: the warmup's must not
			// count toward the per-cycle rate.
			b.ReportMetric(float64(m.BE.Stats.Retired-warm)/float64(b.N), "instrs/cycle")
		})
	}
}

// TestMachineStepZeroAlloc pins the zero-allocation invariant of the
// per-cycle hot path for every registered mechanism: after warmup,
// stepping the machine must never allocate. This is the CI gate for the
// "fast as the hardware allows" budget — any allocation on this path
// multiplies by ~10^8 cycles per experiment cell and serializes the
// parallel grid behind the garbage collector.
func TestMachineStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping alloc gate (needs a warmed machine)")
	}
	for _, mech := range Mechanisms() {
		t.Run(string(mech), func(t *testing.T) {
			cfg := testConfig(mech)
			prog, err := SharedImage(cfg.Workload)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachineWithProgram(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			m.RunInstructions(100_000)
			avg := testing.AllocsPerRun(20_000, m.Step)
			if avg != 0 {
				t.Errorf("%s: Machine.Step allocates %.4f allocs/op, want 0", mech, avg)
			}
		})
	}
}
