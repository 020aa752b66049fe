package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/sim"
)

// This file is the parallel run engine behind every figure/table
// driver: the full (workload, mechanism, config) grid of a driver is
// materialized as a cell list up front and executed in lockstep groups
// on a bounded worker pool, while results are collected positionally
// so the output order — and therefore every rendered table, series and
// CSV — is byte-for-byte identical at any parallelism.
//
// The process-wide result cache is singleflighted: when two concurrent
// grids (or two figures sharing a baseline) request the same canonical
// config key, the second blocks on the first runner instead of
// simulating the same deterministic region twice. Waiters never
// deadlock: a runner simulates every key it claimed before it waits on
// anyone else's, so every waiter's dependency makes progress.

// resultCache memoizes completed runs process-wide: several figures
// share configurations (every speedup figure needs the same baselines,
// Fig. 11/12 and Table III all need the Fig. 3 sweep), and simulations
// are deterministic, so recomputing them is pure waste.
var (
	resultMu       sync.Mutex
	resultCache    = map[string]sim.Result{}
	resultInflight = map[string]*resultCall{}
)

type resultCall struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// parallelism resolves the worker-pool width: Options.Parallelism when
// positive, else GOMAXPROCS.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// jobSpec is one simulation of a driver's grid.
type jobSpec struct {
	app    string
	mech   sim.Mechanism
	mutate func(*sim.Config)
}

// runAll executes the jobs on a bounded worker pool and returns their
// results in input order. Errors are aggregated (errors.Join) rather
// than short-circuiting, so a failed cell reports every failure of the
// grid at once. Cancellation (Options.Context) both skips cells that
// have not started and stops in-flight machines cooperatively.
func (o Options) runAll(jobs []jobSpec) ([]sim.Result, error) {
	// Live grid-cell progress for the expvar endpoint (/debug/vars).
	obs.JobsTotal.Add(int64(len(jobs)))
	cells := make([]batchCell, len(jobs))
	for i, j := range jobs {
		cells[i] = batchCell{
			name: j.app, mech: j.mech,
			cfg: o.cellConfig(j.app, j.mech, j.mutate), opts: o,
		}
	}
	res, errs := runCellsBatched(o.ctx(), cells, o.parallelism(), func(int, sim.Result, error) { obs.JobsDone.Add(1) })
	return res, errors.Join(errs...)
}

// maxBatchSize caps how many machines share one lockstep batch. Past
// ~16 the scheduler's cursor scan and the per-machine cache footprint
// eat the locality win, and 16 matches the headline 16-config sweep.
const maxBatchSize = 16

// batchCell is one grid cell: its identity for progress lines, its
// full config, and the Options owning its cache behaviour and
// observability hooks (cells of a coalesced daemon group carry
// different Options).
type batchCell struct {
	name string
	mech sim.Mechanism
	cfg  sim.Config
	opts Options
}

// runCellsBatched is the engine's one execution path. It resolves every
// cell against the memoized cache, the in-flight table, and the
// persistent store, then groups the cells that actually need
// simulating by workload image and runs each group in lockstep over
// one shared stream. The singleflight protocol is one writer per
// batch: this call claims every key it will simulate up front (so
// concurrent runners wait on it), publishes each key as its batch
// completes, and only then waits for keys claimed by others — claimed
// keys always belong to a runner already executing, so the wait graph
// stays acyclic. onCellDone (if non-nil) fires once per finalized cell,
// in completion order, possibly from concurrent goroutines. workers <= 0
// means GOMAXPROCS.
func runCellsBatched(ctx context.Context, cells []batchCell, workers int, onCellDone func(i int, r sim.Result, err error)) ([]sim.Result, []error) {
	n := len(cells)
	results := make([]sim.Result, n)
	errs := make([]error, n)
	done := func(i int) {
		if onCellDone != nil {
			onCellDone(i, results[i], errs[i])
		}
	}

	// group is one unique cache key: the cell indices sharing it and,
	// when this call claims the key, the inflight entry to resolve.
	type group struct {
		key   string
		call  *resultCall
		cells []int
	}
	var claimed []*group             // keys this call simulates, in first-cell order
	byKey := map[string]*group{}     // claimed groups
	waiting := map[int]*resultCall{} // cell -> another runner's inflight entry
	cached := map[int]sim.Result{}   // cells served from the in-memory cache

	resultMu.Lock()
	for i, c := range cells {
		key := CacheKey(c.cfg, c.opts.Simpoints)
		if g, ok := byKey[key]; ok {
			g.cells = append(g.cells, i)
			continue
		}
		if r, ok := resultCache[key]; ok {
			cached[i] = r
			continue
		}
		if call, ok := resultInflight[key]; ok {
			waiting[i] = call
			continue
		}
		call := &resultCall{done: make(chan struct{})}
		resultInflight[key] = call
		g := &group{key: key, call: call, cells: []int{i}}
		byKey[key] = g
		claimed = append(claimed, g)
	}
	resultMu.Unlock()

	for i, r := range cached {
		obs.CacheHits.Add(1)
		results[i] = r
		c := cells[i]
		c.opts.progress("%s/%s ftq=%d: IPC %.4f (cached)", c.name, c.mech, r.FinalFTQDepth, r.IPC)
		done(i)
	}

	// finish publishes one claimed key — cache, waiters, and every cell
	// of the group — exactly once.
	finish := func(g *group, res sim.Result, err error) {
		resultMu.Lock()
		if err == nil {
			resultCache[g.key] = res
		}
		g.call.res, g.call.err = res, err
		delete(resultInflight, g.key)
		resultMu.Unlock()
		close(g.call.done)
		for _, i := range g.cells {
			results[i], errs[i] = res, err
			done(i)
		}
	}

	// Persistent-store read-through for claimed keys; the rest simulate.
	var toRun []*group
	for _, g := range claimed {
		c := cells[g.cells[0]]
		spanStore := c.opts.spanStore()
		readStart := time.Now()
		agg, hit := c.opts.storeLoad(g.key)
		if spanStore {
			c.opts.OnSpan(obs.Span{Name: "store-read", Start: readStart, End: time.Now(),
				Args: map[string]any{"key": g.key, "hit": hit}})
		}
		if hit {
			finish(g, agg, nil)
			c.opts.progress("%s/%s ftq=%d: IPC %.4f (store)", c.name, c.mech, agg.FinalFTQDepth, agg.IPC)
			continue
		}
		obs.CacheMisses.Add(1)
		toRun = append(toRun, g)
	}

	// Group the remaining work by (workload image, simpoint count) —
	// the identity of the shared stream — into lockstep chunks of at
	// most maxBatchSize machines.
	var chunks [][]*group
	open := map[string]int{} // image key -> index of its newest chunk
	for _, g := range toRun {
		c := cells[g.cells[0]]
		ik := fmt.Sprintf("%s|sp=%d", sim.SourceKey(c.cfg), c.opts.simpoints())
		ci, ok := open[ik]
		if !ok || len(chunks[ci]) == maxBatchSize {
			ci = len(chunks)
			open[ik] = ci
			chunks = append(chunks, nil)
		}
		chunks[ci] = append(chunks[ci], g)
	}
	runChunk := func(chunk []*group, parallelism int) {
		if err := ctx.Err(); err != nil {
			for _, g := range chunk {
				finish(g, sim.Result{}, err)
			}
			return
		}
		cfgs := make([]sim.Config, len(chunk))
		atts := make([]func(int, *sim.Machine), len(chunk))
		for k, g := range chunk {
			c := cells[g.cells[0]]
			cfgs[k] = c.cfg
			atts[k] = c.opts.attachCell(c.name, c.mech)
		}
		res, rerrs := sim.RunBatchSimpoints(ctx, cfgs, cells[chunk[0].cells[0]].opts.simpoints(), parallelism,
			func(region, k int, m *sim.Machine) {
				if atts[k] != nil {
					atts[k](region, m)
				}
			})
		// Store write-back (a synced file each) runs on the chunk's own
		// workers, as many cells at once as it simulated side by side.
		_ = ForEach(len(chunk), parallelism, func(k int) error {
			g := chunk[k]
			if rerrs[k] != nil {
				finish(g, sim.Result{}, rerrs[k])
				return nil
			}
			c := cells[g.cells[0]]
			spanStore := c.opts.spanStore()
			writeStart := time.Now()
			c.opts.storeSave(g.key, res[k])
			if spanStore {
				c.opts.OnSpan(obs.Span{Name: "store-write", Start: writeStart, End: time.Now(),
					Args: map[string]any{"key": g.key}})
			}
			finish(g, res[k], nil)
			c.opts.progress("%s/%s ftq=%d: IPC %.4f", c.name, c.mech, res[k].FinalFTQDepth, res[k].IPC)
			return nil
		})
	}
	runChunks(chunks, workers, runChunk)

	// Finally resolve cells whose keys another runner claimed. That
	// runner simulates its claims before waiting on anyone, so it
	// completes (or cancels) independently of us.
	for i, call := range waiting {
		obs.CacheInflightWaits.Add(1)
		c := cells[i]
		select {
		case <-call.done:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			done(i)
			continue
		}
		if call.err != nil {
			errs[i] = call.err
			done(i)
			continue
		}
		results[i] = call.res
		c.opts.progress("%s/%s ftq=%d: IPC %.4f (cached)", c.name, c.mech, call.res.FinalFTQDepth, call.res.IPC)
		done(i)
	}
	return results, errs
}

// runChunks runs run(chunk, width) for every lockstep chunk on one
// budget of workers tokens (<= 0 means GOMAXPROCS). Each chunk takes as
// many tokens as it has machines, capped at the budget, and runs with
// that many lockstep workers, so chunks of different images run side
// by side whenever the budget has room. Tokens are taken by the calling
// goroutine alone, in chunk order, so no two chunks ever hold partial
// shares.
func runChunks[T any](chunks [][]T, workers int, run func(chunk []T, width int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tokens := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, chunk := range chunks {
		width := min(len(chunk), workers)
		for range width {
			tokens <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(chunk, width)
			for range width {
				<-tokens
			}
		}()
	}
	wg.Wait()
}

// ForEach runs fn(i) for i in [0, n) on a bounded worker pool of the
// given width (<= 0 means GOMAXPROCS, 1 runs serially) and aggregates
// all errors — the pool primitive beside the lockstep runner (a chunk's
// store write-back, Table I's trace characterization). fn must write
// its result into slot i of a caller-owned slice so output order stays
// deterministic.
func ForEach(n, workers int, fn func(int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done, iterations
// that have not started report ctx.Err() instead of running (in-flight
// iterations are the callee's responsibility — Options.run threads the
// same context into the machine loop). The aggregated error therefore
// contains ctx.Err() whenever the grid was cut short.
func ForEachCtx(ctx context.Context, n, workers int, fn func(int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	run := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	}
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = run(i)
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
