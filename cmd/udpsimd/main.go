// Command udpsimd is the simulation-as-a-service daemon: it accepts
// experiment-descriptor JSON over HTTP, schedules jobs on a bounded
// priority/fair queue, runs them through the memoized experiment
// engine, persists results in a content-addressed on-disk store, and
// streams per-cell progress plus per-interval metrics over SSE.
//
// Examples:
//
//	udpsimd -addr :8091 -store /var/lib/udpsim/results
//	udpsimd -addr 127.0.0.1:8091 -workers 2 -j 4 -queue 128
//
// Cluster operation (see README "Running a cluster"):
//
//	# two workers that replicate results to each other over the ring
//	udpsimd -addr :8191 -store w1 -self http://127.0.0.1:8191 -peers http://127.0.0.1:8192
//	udpsimd -addr :8192 -store w2 -self http://127.0.0.1:8192 -peers http://127.0.0.1:8191
//	# a coordinator that shards jobs across them
//	udpsimd -addr :8190 -coordinator -workers http://127.0.0.1:8191,http://127.0.0.1:8192
//
// Endpoints (see EXPERIMENTS.md for the full API reference):
//
//	POST   /v1/jobs              submit an experiment descriptor
//	GET    /v1/jobs              list jobs (paged: ?limit= and ?after=)
//	GET    /v1/jobs/{id}         job status (cells + result keys)
//	GET    /v1/jobs/{id}/events  SSE stream (progress, samples, terminal)
//	POST   /v1/tune              submit a parameter-space search (autotuning)
//	GET    /v1/tune/{id}         tune-run status (stats + incumbent)
//	GET    /v1/tune/{id}/events  SSE stream (probes, generations, incumbents)
//	GET    /v1/results/{key}     content-addressed result record
//	PUT    /v1/results/{key}     peer replication write-back
//	GET    /v1/ring              placement ring / membership view
//	GET    /healthz /readyz      health; readiness flips 503 on drain
//	GET    /debug/vars           expvar (queue depth, dedup, store hits)
//
// SIGTERM/SIGINT drain gracefully: admission stops, queued jobs are
// canceled, running jobs finish (bounded by -drain-timeout), results
// are persisted, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"udpsim/internal/obs"
	"udpsim/internal/serve"
	"udpsim/internal/serve/cluster"
	"udpsim/internal/serve/placement"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8091", "HTTP listen address")
		storeDir     = flag.String("store", "", "content-addressed result store directory (empty = in-memory only)")
		workersFlag  = flag.String("workers", "1", "jobs run concurrently; with -coordinator, the comma-separated worker base URLs instead")
		coordinator  = flag.Bool("coordinator", false, "forward jobs to the -workers fleet by ring ownership instead of simulating locally")
		self         = flag.String("self", "", "this node's advertised base URL (cluster mode; e.g. http://10.0.0.5:8091)")
		peersFlag    = flag.String("peers", "", "comma-separated peer daemon URLs; with -self, joins their placement ring and replicates results (worker cluster mode)")
		parallel     = flag.Int("j", 0, "per-job grid-cell concurrency (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "max queued jobs before 429")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job runtime cap (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown budget for running jobs")
		interval     = flag.Uint64("interval", 10_000, "SSE metrics sampling interval in cycles (0 disables samples)")
		coalesce     = flag.Int("coalesce", 1, "max queued jobs sharing a workload image merged into one lockstep run (1 = no coalescing; results are byte-identical)")
		storeCacheMB = flag.Int("store-cache-mb", int(serve.DefaultCacheBytes>>20), "in-memory store read cache budget in MiB")
		pprofAddr    = flag.String("pprof", "", "serve live pprof+expvar+metrics on this extra address (e.g. :6060)")
		traceOut     = flag.String("trace-out", "", "write the session's job-lifecycle spans as Chrome trace JSON to this file at shutdown (load in Perfetto)")
		verbose      = flag.Bool("v", false, "debug-level logs")
	)
	flag.Parse()

	log := obs.NewLogger(os.Stderr, *verbose)
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	// -workers is overloaded: a job-concurrency count normally, the
	// worker fleet's URLs under -coordinator.
	workers := 1
	var workerURLs []string
	if *coordinator {
		workerURLs = splitList(*workersFlag)
		if len(workerURLs) == 0 || workerURLs[0] == "1" {
			fatal("-coordinator requires -workers to list worker URLs (comma-separated)")
		}
		for _, u := range workerURLs {
			if !strings.Contains(u, "://") {
				fatal("worker is not a URL (want e.g. http://host:port)", "worker", u)
			}
		}
		// One forwarding slot per worker: the coordinator's "workers"
		// are outbound streams, not simulations.
		workers = len(workerURLs)
	} else if n, err := strconv.Atoi(*workersFlag); err == nil && n > 0 {
		workers = n
	} else {
		fatal("bad -workers (want a positive count, or URLs with -coordinator)", "workers", *workersFlag)
	}

	var store *serve.Store
	if *storeDir != "" {
		var err error
		store, err = serve.OpenStore(*storeDir, int64(*storeCacheMB)<<20, log)
		if err != nil {
			fatal("opening result store", "dir", *storeDir, "err", err)
		}
		log.Info("result store open", "dir", *storeDir, "cache_mb", *storeCacheMB)
	} else {
		log.Warn("no -store directory: results are cached in memory only")
	}

	srv := serve.NewServer(serve.ServerConfig{
		Store:       store,
		Workers:     workers,
		MaxQueue:    *queue,
		JobTimeout:  *jobTimeout,
		Parallelism: *parallel,
		Interval:    *interval,
		MaxCoalesce: *coalesce,
		Log:         log,
	})

	switch {
	case *coordinator:
		// Coordinator: ring over the worker fleet, jobs forwarded by
		// shard ownership, results pulled back into the local store.
		members := placement.NewMembership(workerURLs, placement.Config{
			Self:  *self,
			Probe: placement.HTTPProbe(nil),
			Log:   log,
		})
		defer members.Start()()
		srv.SetCluster(members, nil)
		fwd := &cluster.Forwarder{
			Self:    *self,
			Members: members,
			Local:   srv.LocalRunner(),
			OnSpan:  srv.RecordSpan,
			Log:     log,
		}
		if store != nil {
			fwd.Transport = store
		}
		srv.SetRunner(fwd)
		log.Info("coordinating", "workers", workerURLs)
	case *peersFlag != "":
		// Worker in a peer ring: read through (and replicate to) the
		// shard owners.
		if *self == "" {
			fatal("-peers requires -self (this node's advertised URL)")
		}
		members := placement.NewMembership(splitList(*peersFlag), placement.Config{
			Self:  *self,
			Probe: placement.HTTPProbe(nil),
			Log:   log,
		})
		defer members.Start()()
		peer := &serve.PeerStore{Local: store, Self: *self, Members: members, Log: log}
		defer peer.Close()
		srv.SetCluster(members, peer)
		log.Info("joined placement ring", "self", *self, "peers", splitList(*peersFlag))
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		_, stopDebug, err := obs.ServeDebug(*pprofAddr, log)
		if err != nil {
			fatal("pprof listen failed", "addr", *pprofAddr, "err", err)
		}
		defer stopDebug()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Info("udpsimd listening", "addr", *addr, "workers", workers, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		fatal("http server", "err", err)
	case sig := <-sigCh:
		log.Info("draining on signal", "signal", sig.String(), "timeout", drainTimeout.String())
	}

	// Drain: stop admission (readyz -> 503), cancel queued jobs, let
	// running jobs finish within the budget, then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, srv); err != nil {
			log.Error("writing trace", "file", *traceOut, "err", err)
		} else {
			log.Info("trace written", "file", *traceOut, "spans", len(srv.Spans()))
		}
	}
	log.Info("udpsimd stopped")
}

// splitList splits a comma-separated flag value, trimming whitespace
// and dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// writeTrace dumps the session's recorded lifecycle spans as Chrome
// trace-event JSON.
func writeTrace(path string, srv *serve.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, srv.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
