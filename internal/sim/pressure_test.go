package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"udpsim/internal/obs"
	"udpsim/internal/workload"
)

// The observed-stream pin: every event the machine emits and every
// interval sample it takes, hashed, on the data-path-bound xgboost
// profile at the default MSHR files and under MSHR pressure. Event order
// is part of the pinned output: a change that emits the same events in a
// different order (e.g. one rejected demand's backpressure ahead of an
// older one's) changes the exported trace while every counter stays
// equal, and only this test sees it.
const observedStreamPath = "testdata/observed_stream.json"

// observedStreamCase names one pinned run and how it departs from the
// default machine.
type observedStreamCase struct {
	name string
	tune func(*Config)
}

var observedStreamCases = []observedStreamCase{
	{"xgboost-udp-default", func(*Config) {}},
	{"xgboost-udp-pressure", func(c *Config) { c.L1DMSHRs, c.L2MSHRs = 4, 8 }},
	// A narrow load/store path under the same pressure: the load ports
	// and buffer and the store ports close within most issue passes,
	// and the one-entry store buffer is often full before one starts,
	// which bounds how many L1D-rejected demands re-issue per cycle.
	{"xgboost-udp-narrow", func(c *Config) {
		c.L1DMSHRs, c.L2MSHRs = 4, 8
		c.LoadPorts, c.LoadBuffer = 1, 3
		c.StorePorts, c.StoreBuffer = 2, 1
	}},
}

// observedStreamConfig is the xgboost/udp run every case starts from:
// `udpsim -workload xgboost -mechanism udp`'s first simpoint region.
func observedStreamConfig(c observedStreamCase) Config {
	cfg := NewConfig(workload.MustByName("xgboost"), MechUDP)
	cfg.SeedSalt = SimpointSalt(0)
	cfg.WarmupInstructions = 20_000
	cfg.MaxInstructions = 20_000
	c.tune(&cfg)
	return cfg
}

// observedDigest is the pinned output of one case.
type observedDigest struct {
	TraceSHA256   string `json:"trace_sha256"`
	MetricsSHA256 string `json:"metrics_sha256"`
	Events        int    `json:"events"`
	MetricsRows   uint64 `json:"metrics_rows"`
}

// traceChunk bounds the events one run-loop stride may record: the
// pressured case records up to about 120k per stride.
const traceChunk = 1 << 18

// fullObserver is what `udpsim -trace-out -metrics-out -interval 5000`
// attaches: a Tracer, a Lifecycle and the interval sampler streaming
// rows into mw.
func fullObserver(mw *obs.MetricsWriter) *obs.Observer {
	o := &obs.Observer{Life: obs.NewLifecycle(), Interval: 5_000, Trace: obs.NewTracer(traceChunk)}
	o.OnSample = func(s obs.IntervalSample) { _ = mw.Write(s) }
	return o
}

// runStrided runs cfg's first simpoint region with o attached (nil runs
// it unobserved) through the run loop RunCtx drives, one stride at a
// time, calling afterStride between strides and once at the end. A
// whole run records millions of events, more than a tracer ring holds;
// afterStride is where a caller takes them out.
func runStrided(t *testing.T, cfg Config, o *obs.Observer, afterStride func()) Result {
	t.Helper()
	prog, err := SharedImage(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachineWithProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		m.AttachObserver(o)
	}
	m.phase = phaseIdle
	for !m.advance(cancelCheckStride) {
		afterStride()
	}
	afterStride()
	return m.Snapshot()
}

// takeEvents returns the events o's tracer recorded since the last call
// and gives o a fresh tracer.
func takeEvents(t *testing.T, o *obs.Observer) []obs.Event {
	t.Helper()
	if o.Trace.Dropped() != 0 {
		t.Fatalf("tracer overflowed (%d events dropped): raise traceChunk", o.Trace.Dropped())
	}
	events := o.Trace.Events()
	o.Trace = obs.NewTracer(traceChunk)
	return events
}

// observedStream runs one case with the full observer and digests its
// output: the events each stride recorded are exported as one Chrome
// trace into the running trace digest, so it covers every event of the
// run in record order.
func observedStream(t *testing.T, cfg Config) observedDigest {
	t.Helper()
	metricsHash, traceHash := sha256.New(), sha256.New()
	mw := obs.NewMetricsWriter(metricsHash, obs.FormatCSV)
	o := fullObserver(mw)
	var events int
	runStrided(t, cfg, o, func() {
		region := obs.TraceRegion{Workload: cfg.Workload.Name, Mechanism: string(cfg.Mechanism), Events: takeEvents(t, o)}
		if err := obs.WriteChromeTrace(traceHash, []obs.TraceRegion{region}); err != nil {
			t.Fatal(err)
		}
		events += len(region.Events)
	})
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	return observedDigest{
		TraceSHA256:   hex.EncodeToString(traceHash.Sum(nil)),
		MetricsSHA256: hex.EncodeToString(metricsHash.Sum(nil)),
		Events:        events,
		MetricsRows:   mw.Rows(),
	}
}

// TestObservedStreamPinned compares each case's trace and metrics
// digests with testdata/observed_stream.json. To regenerate after an
// intended change to the event stream, delete the file and rerun the
// test (and say why in CHANGES.md).
func TestObservedStreamPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the observed-stream pin")
	}
	got := map[string]observedDigest{}
	for _, c := range observedStreamCases {
		got[c.name] = observedStream(t, observedStreamConfig(c))
	}
	raw, err := os.ReadFile(observedStreamPath)
	if errors.Is(err, os.ErrNotExist) {
		out, _ := json.MarshalIndent(got, "", "  ")
		if err := os.MkdirAll(filepath.Dir(observedStreamPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observedStreamPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %s; rerun to compare", observedStreamPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]observedDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range observedStreamCases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: observed stream changed:\n got  %+v\n want %+v", c.name, got[c.name], want[c.name])
		}
	}
}

// TestObservationDoesNotChangeMachine runs the pressured cases with the
// full observer and with none: the machine must not notice. Every
// Result field but the observer's own Lifecycle digest must be equal.
func TestObservationDoesNotChangeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the observed/unobserved comparison")
	}
	for _, c := range observedStreamCases[1:] {
		cfg := observedStreamConfig(c)
		o := fullObserver(obs.NewMetricsWriter(io.Discard, obs.FormatCSV))
		observed := runStrided(t, cfg, o, func() { takeEvents(t, o) })
		unobserved := runStrided(t, cfg, nil, func() {})
		if !observed.Lifecycle.Tracked || unobserved.Lifecycle.Tracked {
			t.Fatalf("%s: lifecycle tracked: observed %v, unobserved %v", c.name, observed.Lifecycle.Tracked, unobserved.Lifecycle.Tracked)
		}
		if observed.Mem.L1D.Retries == 0 {
			t.Fatalf("%s: the run never retried an L1D demand", c.name)
		}
		observed.Lifecycle, unobserved.Lifecycle = obs.LifecycleSummary{}, obs.LifecycleSummary{}
		if !reflect.DeepEqual(observed, unobserved) {
			t.Errorf("%s: observing the run changed its result:\n observed   %+v\n unobserved %+v", c.name, observed, unobserved)
		}
	}
}
