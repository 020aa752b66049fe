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
	return warmStepMachine(b, testConfig(mech), o)
}

// warmStepMachine is benchStepMachine for any configuration.
func warmStepMachine(tb testing.TB, cfg Config, o *obs.Observer) *Machine {
	tb.Helper()
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		tb.Fatal(err)
	}
	if o != nil {
		m.AttachObserver(o)
	}
	// Warm to steady state so the benchmark measures the recurring
	// per-cycle cost, not cold caches or pool growth.
	m.RunInstructions(100_000)
	return m
}

// pressuredConfig is the data-path-bound regime of the hot-loop gates:
// the UDP machine with 4 L1D and 8 L2 MSHRs (the MSHR-pressure golden
// grid's sizes). Its L1D MSHR file is full most cycles, so the backend
// keeps rejected loads and stores parked, which testConfig's 16-entry
// file rarely makes it do.
func pressuredConfig() Config {
	cfg := testConfig(MechUDP)
	cfg.L1DMSHRs = 4
	cfg.L2MSHRs = 8
	return cfg
}

// stepVariant is one machine BenchmarkMachineStep and
// TestMachineStepZeroAlloc step.
type stepVariant struct {
	name string
	cfg  Config
}

// stepVariants are every mechanism in mechs at testConfig (the gate
// covers all registered ones, the benchmark the paper's four) and the
// pressured UDP machine.
func stepVariants(mechs []Mechanism) []stepVariant {
	var vs []stepVariant
	for _, mech := range mechs {
		vs = append(vs, stepVariant{string(mech), testConfig(mech)})
	}
	return append(vs, stepVariant{"udp-l1d4", pressuredConfig()})
}

// BenchmarkMachineStep measures the raw per-cycle cost of the assembled
// machine — the innermost loop every figure, sweep and experiment cell
// spins in. It must report 0 allocs/op: the parallel experiment engine
// scales with cores only if the hot loop never touches the garbage
// collector (TestMachineStepZeroAlloc gates this; CI fails on > 0).
func BenchmarkMachineStep(b *testing.B) {
	for _, v := range stepVariants([]Mechanism{MechBaseline, MechUDP, MechUFTQATRAUR, MechEIP}) {
		b.Run(v.name, func(b *testing.B) {
			m := warmStepMachine(b, v.cfg, nil)
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
	for _, v := range stepVariants(Mechanisms()) {
		t.Run(v.name, func(t *testing.T) {
			m := warmStepMachine(t, v.cfg, nil)
			retries := m.BE.Stats.MemRetries
			avg := testing.AllocsPerRun(20_000, m.Step)
			if avg != 0 {
				t.Errorf("%s: Machine.Step allocates %.4f allocs/op, want 0", v.name, avg)
			}
			if v.cfg.L1DMSHRs == 4 && m.BE.Stats.MemRetries == retries {
				t.Errorf("%s: no load or store was rejected in the measured steps", v.name)
			}
		})
	}
}
