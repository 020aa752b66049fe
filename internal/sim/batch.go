package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"udpsim/internal/frontend"
	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// Batched lockstep simulation: K config variants of one workload region
// step over a single shared architectural stream. The workload executor
// runs exactly once (inside a workload.Tape); every machine's oracle
// reads the tape through its own TapeReader, and wrong-path divergence
// stays local to each frontend exactly as in an independent run — the
// tape carries only the on-path stream, and each frontend walks the
// static image itself for (possibly wrong-path) fetch.
//
// Scheduling keeps the machines' stream cursors close together
// (smallest-cursor-first, in slices of batchStride cycles), which
// bounds tape memory to the cursor spread of the group and keeps the
// shared chunks hot in cache across machines. Each slice is one
// Machine.advance call — the same warmup→measure loop RunCtx uses — so
// the runner holds only scheduling state.
//
// Equivalence: each machine sees the byte-identical instruction stream,
// step sequence, warmup/measure transition, and snapshot point it would
// see under Machine.RunCtx, so batched results are bit-for-bit equal to
// unbatched ones (asserted by TestRunBatchEquivalence).

// batchStride is how many cycles a machine advances per scheduling
// slice: large enough to amortize the scheduler scan and the tape
// pre-extension lock and to keep a worker on one machine's working set,
// small enough to keep cursor spread (and therefore resident tape
// memory) tight. Matches cancelCheckStride so cancellation latency is
// the same as RunCtx's.
const batchStride = cancelCheckStride

// SimpointSalt returns the seed salt selecting simpoint region i. The
// offset keeps region 0 distinct from a plain non-simpoint run (salt 0):
// salt participates in ConfigKey, and a zero salt for region 0 would
// alias the two in every salt-keyed path (observer tags, batched-run
// grouping, trace filenames).
func SimpointSalt(i int) uint64 { return uint64(i+1) * 7919 }

// PanicError is a model panic (no forward progress, a broken invariant,
// a panicking hook) recovered at a lockstep cell boundary: it fails its
// cell alone and keeps the panicking goroutine's stack for diagnosis.
type PanicError struct {
	Key   string // ConfigKey of the failed cell
	Value any    // the value passed to panic
	Stack []byte // runtime/debug.Stack at the recovery point
}

func (e *PanicError) Error() string { return fmt.Sprintf("sim: %s: panic: %v", e.Key, e.Value) }

// batchRunner holds the shared tape and the per-machine scheduling
// state for one lockstep group.
type batchRunner struct {
	cfgs    []Config
	tape    *workload.Tape
	ms      []*Machine             // nil where construction failed
	readers []*workload.TapeReader // nil without a tape
	done    []bool                 // finished, failed or abandoned

	res  []Result
	errs []error

	// Parallel-mode coordination.
	mu      sync.Mutex
	cond    *sync.Cond
	claimed []bool
	live    int
	stopped error
}

// newBatchRunner builds the K machines over one shared tape (a nil tape
// gives each machine its own source) on parallelism workers. attach (if
// non-nil) runs per machine after construction, serially, before any
// stepping — the observer hook, mirroring RunSimpointsCtx. Construction
// failures land in errs; surviving machines still run.
func newBatchRunner(cfgs []Config, prog *workload.Program, tape *workload.Tape, parallelism int, attach func(k int, m *Machine)) *batchRunner {
	k := len(cfgs)
	b := &batchRunner{
		cfgs:    cfgs,
		tape:    tape,
		ms:      make([]*Machine, k),
		readers: make([]*workload.TapeReader, k),
		done:    make([]bool, k),
		res:     make([]Result, k),
		errs:    make([]error, k),
		claimed: make([]bool, k),
	}
	b.cond = sync.NewCond(&b.mu)
	if tape != nil {
		// Every reader exists before anything consumes the tape.
		for i := range b.readers {
			b.readers[i] = tape.Reader()
		}
	}
	// Construction (clearing cache arrays and predictor tables) costs
	// as much as a short run, so the batch's workers build the machines
	// side by side.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(parallelism, k) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				var src frontend.InstrSource
				if b.readers[i] != nil {
					src = b.readers[i]
				}
				b.ms[i], b.errs[i] = NewMachineWithSource(cfgs[i], prog, src)
			}
		}()
	}
	wg.Wait()
	for i, m := range b.ms {
		if b.errs[i] != nil {
			b.finish(i)
			continue
		}
		b.live++
		if attach != nil {
			attach(i, m)
		}
	}
	return b
}

// advance runs one slice of machine k, snapshotting it once its run
// completes. The tape is pre-extended past everything the slice can
// consume, so the cycle loop itself allocates nothing — the zero-alloc
// Machine.Step invariant holds in batch mode. A model panic fails this
// cell alone instead of the batch or the process.
func (b *batchRunner) advance(k int) {
	defer func() {
		if r := recover(); r != nil {
			b.errs[k] = &PanicError{Key: ConfigKey(b.cfgs[k]), Value: r, Stack: debug.Stack()}
			b.finish(k)
		}
	}()
	m := b.ms[k]
	if b.tape != nil {
		// A cycle consumes at most consume records, and a machine never
		// reads further ahead of its retirement than the in-flight bound
		// (frontend.OracleWindow), so a short run records little of a
		// stream it will never read.
		consume := uint64(m.cfg.BlocksPerCycle)*isa.InstrPerBlock + 1
		ahead := min(batchStride*consume, m.toRetire()+frontend.OracleWindow)
		b.tape.EnsureAhead(m.Oracle.Cursor() + ahead)
	}
	if m.advance(batchStride) {
		b.res[k] = m.Snapshot()
		b.finish(k)
	}
}

// finish marks machine k done and releases its hold on the tape.
func (b *batchRunner) finish(k int) {
	b.done[k] = true
	if b.readers[k] != nil {
		b.readers[k].Close()
	}
}

// run drives every live machine to completion, smallest stream cursor
// first, on parallelism workers (the calling goroutine is one), each of
// which repeatedly claims the furthest-behind unclaimed machine. ctx
// cancellation, polled once per slice like RunCtx's loop, abandons
// unfinished machines with ctx.Err().
func (b *batchRunner) run(ctx context.Context, parallelism int) {
	poll := ctx.Done() != nil
	var wg sync.WaitGroup
	for w := 1; w < min(parallelism, b.live); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.worker(ctx, poll)
		}()
	}
	b.worker(ctx, poll)
	wg.Wait()
	if b.stopped != nil {
		b.abandon(b.stopped)
	}
}

// worker claims the furthest-behind unclaimed live machine, advances it
// one slice, and repeats until no live machines remain. Machine state is
// only touched while claimed; done[i] of an unclaimed machine is
// stable, so the scan under b.mu is race-free.
func (b *batchRunner) worker(ctx context.Context, poll bool) {
	b.mu.Lock()
	for {
		if b.stopped != nil || b.live == 0 {
			b.mu.Unlock()
			return
		}
		k := -1
		var best uint64
		for i, m := range b.ms {
			if b.claimed[i] || b.done[i] {
				continue
			}
			if c := m.Oracle.Cursor(); k < 0 || c < best {
				k, best = i, c
			}
		}
		if k < 0 {
			// Every live machine is claimed by another worker.
			b.cond.Wait()
			continue
		}
		b.claimed[k] = true
		b.mu.Unlock()

		if poll {
			if err := ctx.Err(); err != nil {
				b.mu.Lock()
				b.claimed[k] = false
				if b.stopped == nil {
					b.stopped = err
				}
				b.cond.Broadcast()
				b.mu.Unlock()
				return
			}
		}
		b.advance(k)

		b.mu.Lock()
		b.claimed[k] = false
		if b.done[k] {
			b.live--
		}
		b.cond.Broadcast()
	}
}

// abandon marks every unfinished machine with err (cancellation).
func (b *batchRunner) abandon(err error) {
	for i := range b.ms {
		if !b.done[i] {
			b.errs[i] = err
			b.finish(i)
		}
	}
}

// RunBatch steps K configurations in lockstep over one shared
// architectural stream and returns per-config results. All
// configurations must describe the same workload image and seed salt
// (the stream identity); everything else — mechanism, FTQ geometry,
// cache sizes, warmup/measure lengths — may differ per config. Errors
// are per config: an invalid cell fails alone while the rest of the
// batch runs.
func RunBatch(cfgs []Config, parallelism int) ([]Result, []error) {
	return RunBatchCtx(context.Background(), cfgs, parallelism, nil)
}

// RunBatchCtx is RunBatch with cooperative cancellation and a
// per-machine attach hook (observers, mirroring RunSimpointsCtx's).
func RunBatchCtx(ctx context.Context, cfgs []Config, parallelism int, attach func(k int, m *Machine)) ([]Result, []error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(cfgs))
	fail := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return make([]Result, len(cfgs)), errs
	}
	sk := SourceKey(cfgs[0])
	for i := 1; i < len(cfgs); i++ {
		if SourceKey(cfgs[i]) != sk {
			return fail(fmt.Errorf("sim: batch mixes workload sources (%q vs %q)",
				cfgs[i].Workload.Name, cfgs[0].Workload.Name))
		}
		if cfgs[i].SeedSalt != cfgs[0].SeedSalt {
			return fail(fmt.Errorf("sim: batch mixes seed salts (%d vs %d)",
				cfgs[i].SeedSalt, cfgs[0].SeedSalt))
		}
	}
	prog, err := workloadImage(cfgs[0])
	if err != nil {
		return fail(err)
	}
	var tape *workload.Tape
	switch {
	case len(cfgs) == 1:
		// A batch of one shares nothing: its machine reads its own
		// source, as under Machine.RunCtx, and nothing is recorded.
	case cfgs[0].TraceRef != "":
		// Trace-driven batch: the tape replays the registered source's
		// recorded stream instead of a live executor, and everything
		// downstream — lockstep scheduling, chunk trimming, equivalence
		// to the serial path — is unchanged.
		src, ok := workload.SourceByKey(sk)
		if !ok {
			return fail(fmt.Errorf("sim: trace %s not registered (load it with trace.LoadSource + workload.RegisterSource)", cfgs[0].TraceRef))
		}
		stream, err := src.Stream(cfgs[0].SeedSalt)
		if err != nil {
			return fail(err)
		}
		tape = workload.NewTapeFromStream(stream)
	default:
		tape = workload.NewTape(prog, cfgs[0].SeedSalt)
	}
	b := newBatchRunner(cfgs, prog, tape, parallelism, attach)
	b.run(ctx, parallelism)
	return b.res, b.errs
}

// RunBatchSimpoints runs each configuration over n simpoint regions
// (seed salts SimpointSalt(i), matching RunSimpointsCtx) with the
// machines of each region batched in lockstep, and returns the
// per-config aggregate across regions. attach (if non-nil) is invoked
// per (region, config) machine before it runs.
func RunBatchSimpoints(ctx context.Context, cfgs []Config, n, parallelism int, attach func(region, k int, m *Machine)) ([]Result, []error) {
	if n <= 0 {
		n = 1
	}
	k := len(cfgs)
	per := make([][]Result, k)
	errs := make([]error, k)
	rcfgs := make([]Config, k)
	for region := 0; region < n; region++ {
		copy(rcfgs, cfgs)
		for i := range rcfgs {
			if rcfgs[i].TraceRef == "" {
				rcfgs[i].SeedSalt = SimpointSalt(region)
			}
		}
		var at func(int, *Machine)
		if attach != nil {
			r := region
			at = func(i int, m *Machine) { attach(r, i, m) }
		}
		res, rerrs := RunBatchCtx(ctx, rcfgs, parallelism, at)
		for i := 0; i < k; i++ {
			switch {
			case rerrs[i] != nil:
				if errs[i] == nil {
					errs[i] = rerrs[i]
				}
			case errs[i] == nil:
				per[i] = append(per[i], res[i])
			}
		}
	}
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		if errs[i] == nil {
			out[i] = Aggregate(per[i])
		}
	}
	return out, errs
}
