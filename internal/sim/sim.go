// Package sim assembles the full machine — synthetic workload,
// TAGE-SC-L, BTB, decoupled frontend with FDIP, out-of-order backend,
// and the cache/memory hierarchy — configured per Table II of the
// paper, and runs cycle-accurate simulations under a selected
// mechanism (baseline FDIP, perfect icache, the UFTQ variants, UDP,
// the EIP comparator, and the no-prefetch lower bound).
package sim

import (
	"context"
	"fmt"
	"math"

	"udpsim/internal/backend"
	"udpsim/internal/bp"
	"udpsim/internal/btb"
	"udpsim/internal/cache"
	"udpsim/internal/core"
	"udpsim/internal/eip"
	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/memory"
	"udpsim/internal/obs"
	"udpsim/internal/workload"
)

// The Mechanism type, its constants, and the plugin registry that
// replaced the old hand-maintained mechanism switch live in
// mechanisms.go and registry.go.

// Config is a full simulation configuration. NewConfig supplies the
// paper's Table II values; tests and sweeps override single fields.
type Config struct {
	Workload  workload.Profile
	Mechanism Mechanism

	// SeedSalt selects the simpoint: different salts replay different
	// dynamic phases of the same static image.
	SeedSalt uint64

	// TraceRef, when non-empty, makes this a trace-driven configuration:
	// it is the hex SHA-256 of a UDPT2 trace file whose Source must be
	// registered (workload.RegisterSource) before machines are built.
	// The image and instruction stream then come from the trace instead
	// of the synthetic generator, Workload carries only the display
	// name, and the cache key is derived from the content hash —
	// consistent with the content-addressed result store, so daemon
	// dedup, replication and cluster sharding work unchanged.
	TraceRef string

	// MaxInstructions ends the run after this many retired
	// instructions.
	MaxInstructions uint64
	// WarmupInstructions are simulated first and excluded from stats.
	WarmupInstructions uint64

	// Frontend.
	FTQDepth       int
	FTQPhysMax     int
	BlocksPerCycle int
	ScanPerCycle   int
	FetchWidth     int
	ICacheBytes    int
	ICacheWays     int
	IMSHRs         int

	// Branch prediction.
	Tage            bp.TageConfig
	BTBEntries      int
	BTBWays         int
	IndirectEntries int
	RASEntries      int

	// Backend.
	Width       int
	ROBSize     int
	RSSize      int
	ALUs        int
	LoadPorts   int
	StorePorts  int
	LoadBuffer  int
	StoreBuffer int

	// Uncore.
	L1DBytes        int
	L1DWays         int
	L2Bytes         int
	L2Ways          int
	LLCBytes        int
	LLCWays         int
	L1DLatency      int
	L2Latency       int
	LLCLatency      int
	DRAMLatency     int
	DRAMBurstCycles int
	StreamPF        bool
	// Per-level miss-status holding registers (fill buffers): how many
	// fills may be in flight at each level. Demands rejected by a full
	// file retry; prefetches are dropped (counted as backpressure).
	L1DMSHRs int
	L2MSHRs  int
	LLCMSHRs int
	// Per-level fill-port occupancy in cycles: each fill into the level
	// holds its (single) fill port this long, serializing bursts of
	// fills and charging prefetch traffic a bandwidth cost.
	L1DFillCycles int
	L2FillCycles  int
	LLCFillCycles int
	// DRAMPrefetchBacklog drops prefetch fills whose projected DRAM
	// queueing delay exceeds this many cycles (demands are never
	// throttled). Negative disables the throttle; zero picks the
	// memory package's default. See memory.Config.DRAMPrefetchBacklog.
	DRAMPrefetchBacklog int

	// Mechanism knobs.
	UFTQ core.UFTQConfig
	UDP  core.UDPConfig
	EIP  eip.Config

	// PredecodeBTBFill enables Boomerang/Confluence-style BTB filling
	// from prefetched lines (an orthogonal technique the paper cites;
	// composes with any mechanism).
	PredecodeBTBFill bool
}

// NewConfig returns the Table II configuration for a workload under a
// mechanism. The empty mechanism is normalized to MechBaseline so the
// two spellings share one result-cache key.
func NewConfig(w workload.Profile, m Mechanism) Config {
	return Config{
		Workload:  w,
		Mechanism: NormalizeMechanism(m),

		MaxInstructions:    2_000_000,
		WarmupInstructions: 200_000,

		FTQDepth:       32,
		FTQPhysMax:     128,
		BlocksPerCycle: 2,
		ScanPerCycle:   2,
		FetchWidth:     6,
		ICacheBytes:    32 * 1024,
		ICacheWays:     8,
		IMSHRs:         16,

		Tage:            bp.DefaultTageConfig(),
		BTBEntries:      8192,
		BTBWays:         8,
		IndirectEntries: 2048,
		RASEntries:      32,

		Width:       6,
		ROBSize:     352,
		RSSize:      125,
		ALUs:        4,
		LoadPorts:   2,
		StorePorts:  2,
		LoadBuffer:  64,
		StoreBuffer: 64,

		L1DBytes:        48 * 1024,
		L1DWays:         12,
		L2Bytes:         512 * 1024,
		L2Ways:          8,
		LLCBytes:        2 * 1024 * 1024,
		LLCWays:         16,
		L1DLatency:      4,
		L2Latency:       13,
		LLCLatency:      36,
		DRAMLatency:     150,
		DRAMBurstCycles: 10,
		StreamPF:        true,
		L1DMSHRs:        16,
		L2MSHRs:         32,
		LLCMSHRs:        64,
		L1DFillCycles:   1,
		L2FillCycles:    1,
		LLCFillCycles:   1,
		// Defer to the memory package's default throttle policy.
		DRAMPrefetchBacklog: 0,

		UFTQ: core.DefaultUFTQConfig(core.UFTQATRAUR),
		UDP:  core.DefaultUDPConfig(),
		EIP:  eip.DefaultConfig(),
	}
}

// Machine is one assembled simulated core.
type Machine struct {
	cfg  Config
	prog *workload.Program
	src  frontend.InstrSource

	Dir    *bp.Tage
	BTB    *btb.BTB
	IBTB   *btb.IndirectBTB
	Hier   *memory.Hierarchy
	FE     *frontend.Frontend
	BE     *backend.Backend
	Oracle *frontend.OracleStream

	// mech is the active mechanism's binding bundle (see registry.go);
	// the UDP/UFTQ/EIP accessors expose its typed views.
	mech Bindings

	// resetters is the fixed walk ResetStats takes over every component
	// that accumulates statistics, assembled at construction.
	resetters []StatsResetter

	cycle uint64

	// Observability (attached post-construction via AttachObserver so
	// Config — and the result-cache key — stays unchanged). The
	// obsLast* fields are the interval sampler's delta baselines.
	obs              *obs.Observer
	obsLastCycle     uint64
	obsLastRetired   uint64
	obsLastMisses    uint64
	obsLastEmitted   uint64
	obsLastUseful    uint64
	obsLastUseless   uint64
	obsLastDRAMQueue uint64
	obsLastFillQueue uint64
	obsLastRetries   uint64
	obsLastDrops     uint64

	// phaseHook, when set, is called once per run-phase transition with
	// "warmup", "measure" and "done" — O(1) per run, never per cycle, so
	// the zero-alloc cycle-loop gate is unaffected. The service layer
	// uses it to put warmup/measure spans on the daemon's job timeline.
	phaseHook func(phase string)

	// Run state of the warmup→measure sequence advance drives: the
	// current phase, the retired-instruction count ending it, its
	// forward-progress cycle bound, and the observer interval
	// suppressed during warmup.
	phase   runPhase
	target  uint64
	limit   uint64
	savedIv uint64
}

// runPhase is a machine's position in its warmup→measure sequence.
type runPhase uint8

const (
	phaseIdle runPhase = iota
	phaseWarmup
	phaseMeasure
	phaseDone
)

// SetPhaseHook installs (or clears, with nil) the run-phase callback.
// Like AttachObserver it is post-construction state and not part of
// Config, so it never perturbs result-cache keys.
func (m *Machine) SetPhaseHook(hook func(phase string)) { m.phaseHook = hook }

// notePhase fires the phase hook if one is installed.
func (m *Machine) notePhase(phase string) {
	if m.phaseHook != nil {
		m.phaseHook(phase)
	}
}

// NewMachine builds and wires a machine. The program image is generated
// from cfg.Workload (use NewMachineWithProgram to share an image across
// runs — generation of the multi-MB images is the expensive part).
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.TraceRef != "" {
		prog, err := workloadImage(cfg)
		if err != nil {
			return nil, err
		}
		return NewMachineWithProgram(cfg, prog)
	}
	prog, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	return NewMachineWithProgram(cfg, prog)
}

// NewMachineWithProgram wires a machine over an already-generated
// program image, executing the workload live.
func NewMachineWithProgram(cfg Config, prog *workload.Program) (*Machine, error) {
	return NewMachineWithSource(cfg, prog, nil)
}

// NewMachineWithSource wires a machine over a program image with a
// custom architectural instruction source (e.g. a trace replayer); a
// nil source runs the live executor with cfg.SeedSalt.
func NewMachineWithSource(cfg Config, prog *workload.Program, src frontend.InstrSource) (*Machine, error) {
	cfg.Mechanism = NormalizeMechanism(cfg.Mechanism)
	if err := validateGeometry(cfg); err != nil {
		return nil, err
	}
	desc, ok := LookupMechanism(cfg.Mechanism)
	if !ok {
		return nil, fmt.Errorf("sim: unknown mechanism %q (registered: %s)",
			cfg.Mechanism, MechanismNames())
	}
	m := &Machine{cfg: cfg, prog: prog}

	m.Dir = bp.NewTage(cfg.Tage)
	m.BTB = btb.New(btb.Config{Entries: cfg.BTBEntries, Ways: cfg.BTBWays})
	m.IBTB = btb.NewIndirect(cfg.IndirectEntries)

	m.Hier = memory.New(memory.Config{
		L1D: cache.Config{
			Name: "L1D", SizeBytes: cfg.L1DBytes, Ways: cfg.L1DWays,
			Policy: cache.LRU, HitLatency: cfg.L1DLatency,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways, Policy: cache.LRU,
		},
		LLC: cache.Config{
			Name: "LLC", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays, Policy: cache.LRU,
		},
		L2Latency:        cfg.L2Latency,
		LLCLatency:       cfg.LLCLatency,
		DRAMLatency:      cfg.DRAMLatency,
		DRAMBurstCycles:  cfg.DRAMBurstCycles,
		StreamPrefetcher: cfg.StreamPF,
		L1DMSHRs:         cfg.L1DMSHRs,
		L2MSHRs:          cfg.L2MSHRs,
		LLCMSHRs:         cfg.LLCMSHRs,
		L1DFillCycles:    cfg.L1DFillCycles,
		L2FillCycles:     cfg.L2FillCycles,
		LLCFillCycles:    cfg.LLCFillCycles,

		DRAMPrefetchBacklog: cfg.DRAMPrefetchBacklog,
	})

	if src == nil {
		if cfg.TraceRef != "" {
			s, ok := workload.SourceByKey("trace:" + cfg.TraceRef)
			if !ok {
				return nil, fmt.Errorf("sim: trace %s not registered (load it with trace.LoadSource + workload.RegisterSource)", cfg.TraceRef)
			}
			stream, err := s.Stream(cfg.SeedSalt)
			if err != nil {
				return nil, err
			}
			src = stream
		} else {
			src = workload.NewExecutor(prog, cfg.SeedSalt)
		}
	}
	m.src = src
	m.Oracle = frontend.NewOracleStream(src)

	feCfg := frontend.Config{
		FTQPhysMax:     cfg.FTQPhysMax,
		FTQDepth:       cfg.FTQDepth,
		BlocksPerCycle: cfg.BlocksPerCycle,
		ScanPerCycle:   cfg.ScanPerCycle,
		FetchWidth:     cfg.FetchWidth,
		MSHRs:          cfg.IMSHRs,
		RASEntries:     cfg.RASEntries,
		L1I: cache.Config{
			Name: "L1I", SizeBytes: cfg.ICacheBytes, Ways: cfg.ICacheWays,
			Policy: cache.LRU, HitLatency: 3,
		},
		PredecodeBTBFill: cfg.PredecodeBTBFill,
		InFlightHint:     cfg.ROBSize,
	}

	bind, err := desc.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: building mechanism %q: %w", cfg.Mechanism, err)
	}
	m.mech = bind
	if bind.MutateFrontend != nil {
		bind.MutateFrontend(&feCfg)
	}

	m.FE = frontend.New(feCfg, frontend.Deps{
		Program:  prog,
		Oracle:   m.Oracle,
		Dir:      m.Dir,
		BTB:      m.BTB,
		IndirBTB: m.IBTB,
		Hier:     m.Hier,
		Tuner:    bind.Tuner,
		External: bind.External,
	})
	m.BE = backend.New(backend.Config{
		Width:       cfg.Width,
		ROBSize:     cfg.ROBSize,
		RSSize:      cfg.RSSize,
		ALUs:        cfg.ALUs,
		LoadPorts:   cfg.LoadPorts,
		StorePorts:  cfg.StorePorts,
		LoadBuffer:  cfg.LoadBuffer,
		StoreBuffer: cfg.StoreBuffer,
	}, m.FE, m.Hier)

	// Everything that accumulates statistics registers a resetter here;
	// ResetStats walks this list instead of hand-naming fields.
	m.resetters = []StatsResetter{m.FE, m.BE, m.Hier, m.BTB}
	if bind.Stats != nil {
		m.resetters = append(m.resetters, bind.Stats)
	}
	return m, nil
}

// Mech returns the active mechanism's binding bundle.
func (m *Machine) Mech() Bindings { return m.mech }

// UDP returns the active UDP instance (nil unless a UDP-family
// mechanism is selected).
func (m *Machine) UDP() *core.UDP { return m.mech.UDP }

// UFTQ returns the active UFTQ controller (nil unless a UFTQ-family
// mechanism is selected).
func (m *Machine) UFTQ() *core.UFTQ { return m.mech.UFTQ }

// EIP returns the active EIP comparator (nil unless mechanism "eip").
func (m *Machine) EIP() *eip.EIP { return m.mech.EIP }

// validateGeometry checks every cache geometry in the configuration up
// front and returns an error instead of letting the cache constructors
// panic deep inside memory.New/frontend.New. Sweeps over icache (and
// other) sizes hit this with non-power-of-two set counts: e.g. 48 KiB
// at the default 8 ways implies 96 sets, which is not indexable.
func validateGeometry(cfg Config) error {
	caches := []cache.Config{
		{Name: "L1I", SizeBytes: cfg.ICacheBytes, Ways: cfg.ICacheWays},
		{Name: "L1D", SizeBytes: cfg.L1DBytes, Ways: cfg.L1DWays},
		{Name: "L2", SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways},
		{Name: "LLC", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays},
	}
	for _, c := range caches {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("sim: invalid %s geometry (size %d, ways %d): %w; pick ways so size/(ways*%d) is a power of two (see sim.AutoWays)",
				c.Name, c.SizeBytes, c.Ways, err, isa.LineBytes)
		}
	}
	for _, k := range []struct {
		name string
		v    int
	}{
		{"IMSHRs", cfg.IMSHRs},
		{"L1DMSHRs", cfg.L1DMSHRs},
		{"L2MSHRs", cfg.L2MSHRs},
		{"LLCMSHRs", cfg.LLCMSHRs},
		{"L1DFillCycles", cfg.L1DFillCycles},
		{"L2FillCycles", cfg.L2FillCycles},
		{"LLCFillCycles", cfg.LLCFillCycles},
	} {
		if k.v < 0 {
			return fmt.Errorf("sim: %s must be >= 0 (0 selects the default), got %d", k.name, k.v)
		}
	}
	return nil
}

// AutoWays picks an associativity for a cache of sizeBytes such that
// the implied set count (sizeBytes / (ways * line)) is a power of two,
// preferring the smallest valid ways ≥ 8 (the Table II icache
// associativity class). For power-of-two sizes this returns 8; for
// 40 KiB it returns 10, for 48 KiB it returns 12, etc. Returns 0 when
// sizeBytes is not a positive multiple of the line size (no valid
// geometry exists).
func AutoWays(sizeBytes int) int {
	if sizeBytes <= 0 || sizeBytes%isa.LineBytes != 0 {
		return 0
	}
	lines := sizeBytes / isa.LineBytes
	// ways must be odd(lines) * 2^j so that sets = lines/ways is a
	// power of two.
	odd := lines
	for odd%2 == 0 {
		odd /= 2
	}
	ways := odd
	for ways < 8 && ways*2 <= lines {
		ways *= 2
	}
	return ways
}

// Program returns the machine's static image.
func (m *Machine) Program() *workload.Program { return m.prog }

// Cycle returns the current simulated cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Step advances the machine one cycle. The hierarchy ticks first so
// fills whose data arrives this cycle become visible before the
// frontend and backend look for them.
func (m *Machine) Step() {
	m.cycle++
	m.Hier.Tick(m.cycle)
	m.FE.Cycle(m.cycle)
	m.BE.Cycle(m.cycle)
	if m.obs != nil {
		m.obsTick()
	}
}

// Run simulates until MaxInstructions retire (after warmup) and
// returns the result. A zero MaxInstructions runs 1M instructions.
func (m *Machine) Run() Result {
	r, err := m.RunCtx(nil)
	if err != nil {
		// Unreachable: a nil context never cancels.
		panic(err)
	}
	return r
}

// RunCtx is Run with cooperative cancellation: the run loop polls ctx
// every cancelCheckStride cycles (cheap — one atomic load every few
// microseconds of simulation) and returns ctx's error as soon as it is
// observed, discarding the partial region. A nil or background context
// degrades to the plain uncancellable Run.
func (m *Machine) RunCtx(ctx context.Context) (res Result, err error) {
	// Trace replay has no per-cycle error path, so cancellation reaches
	// it through a duck-typed context on the stream plus a panic/recover
	// abort protocol; the synthetic executor implements neither and the
	// run loop below is untouched (bit-identical to the uncancellable
	// path).
	if ctx != nil && ctx.Done() != nil {
		if cs, ok := m.src.(interface{ SetRunContext(context.Context) }); ok {
			cs.SetRunContext(ctx)
			defer cs.SetRunContext(nil)
			defer func() {
				if r := recover(); r != nil {
					ab, ok := r.(interface{ RunAborted() error })
					if !ok {
						panic(r)
					}
					res, err = Result{}, ab.RunAborted()
				}
			}()
		}
	}
	m.phase = phaseIdle
	for !m.advance(cancelCheckStride) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
	}
	return m.Snapshot(), nil
}

// cancelCheckStride is how many cycles elapse between context polls in
// the run loop: frequent enough that cancellation latency is a few
// milliseconds of wall time, rare enough that the poll is invisible in
// BenchmarkMachineStep-scale profiles.
const cancelCheckStride = 4096

// advance drives the machine's warmup→measure sequence for up to stride
// cycles and reports whether the run is done. It is the one run loop:
// RunCtx calls it over the machine's own source, the lockstep batch
// scheduler in short strides over a shared tape. Warmup suppresses
// interval samples so a streaming metrics sink sees only measured-region
// rows (their retired deltas must sum to Result.Instructions); its end
// resets statistics while keeping microarchitectural state. A zero
// MaxInstructions measures 1M instructions.
func (m *Machine) advance(stride int) bool {
	if m.phase == phaseIdle {
		if w := m.cfg.WarmupInstructions; w > 0 {
			if m.obs != nil {
				m.savedIv, m.obs.Interval = m.obs.Interval, 0
			}
			m.phase = phaseWarmup
			m.arm(w)
			m.notePhase("warmup")
		} else {
			m.beginMeasure()
		}
	}
	for n := 0; m.phase != phaseDone; {
		n += m.stepToTarget(stride - n)
		if m.BE.Stats.Retired < m.target {
			return false
		}
		if m.phase == phaseWarmup {
			m.ResetStats()
			if m.obs != nil {
				m.obs.Interval = m.savedIv
			}
			m.beginMeasure()
			continue
		}
		m.obsFlush()
		m.phase = phaseDone
		m.notePhase("done")
	}
	return true
}

// beginMeasure arms the measured region.
func (m *Machine) beginMeasure() {
	m.phase = phaseMeasure
	m.arm(m.measured())
	m.notePhase("measure")
}

// measured is the measured region's length.
func (m *Machine) measured() uint64 {
	if n := m.cfg.MaxInstructions; n > 0 {
		return n
	}
	return 1_000_000
}

// toRetire is how many more instructions an unfinished run retires.
func (m *Machine) toRetire() uint64 {
	if m.phase == phaseIdle {
		return m.cfg.WarmupInstructions + m.measured()
	}
	n := m.target - m.BE.Stats.Retired
	if m.phase == phaseWarmup {
		n += m.measured()
	}
	return n
}

// arm sets the retire target n instructions ahead, with a safety bound
// of 400 cycles per instruction against modelling deadlock.
func (m *Machine) arm(n uint64) {
	m.target = m.BE.Stats.Retired + n
	m.limit = m.cycle + n*400 + 1_000_000
}

// stepToTarget steps until the retire target is met or budget cycles
// have run, and returns the cycles it ran.
func (m *Machine) stepToTarget(budget int) int {
	n := 0
	for ; n < budget && m.BE.Stats.Retired < m.target; n++ {
		m.Step()
		if m.cycle > m.limit {
			panic(fmt.Sprintf("sim: no forward progress (retired %d of target %d at cycle %d)",
				m.BE.Stats.Retired, m.target, m.cycle))
		}
	}
	return n
}

// RunInstructions advances until n more instructions retire, outside
// any Run: it re-arms the retire target, so it must not be interleaved
// with an unfinished RunCtx.
func (m *Machine) RunInstructions(n uint64) {
	m.arm(n)
	m.stepToTarget(math.MaxInt)
}

// ResetStats clears all accumulated statistics (end of warmup) while
// preserving microarchitectural state (caches, predictors, learned
// sets). It walks the StatsResetter list assembled at construction —
// frontend, backend, memory hierarchy, BTB, plus whatever the active
// mechanism registered — so a new component only has to implement
// ResetStats and join the list.
func (m *Machine) ResetStats() {
	for _, r := range m.resetters {
		r.ResetStats()
	}
	if m.obs != nil {
		if m.obs.Life != nil {
			m.obs.Life.Reset()
		}
		m.obs.ResetSamples()
		m.obsRearm()
	}
}
