package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
)

// observabilityGates: the instrumented hot path (registry scraping +
// request tracing at the default sample rate) may cost at most 5% of
// offered-load throughput versus instrumentation off.
var observabilityGates = []Gate{
	{Name: "overhead", Metric: "overhead_offered_load_percent", Op: "<=", Budget: 5, Timing: true},
}

// runObservabilityMode loads sc.Records keys into a bare engine with the
// full observability stack off or on: when instrumented, the engine
// carries a tracer, its stats feed a live registry, a background
// goroutine scrapes the exposition the whole run (the worst realistic
// case — a tight Prometheus loop), and puts are traced at the client
// default head-sampling rate, so the overhead covers the traced-put hot
// path, not just registry scraping.
func runObservabilityMode(sc Scale, instrumented bool, opsPerSec float64) (trial, error) {
	if !instrumented {
		e, err := openEngine(sc, 2, 2, false, nil)
		if err != nil {
			return nil, err
		}
		defer e.Close()
		return e.load(sc.Records, opsPerSec, e.put)
	}

	stats := &metrics.CompactionStats{}
	tracer := obs.NewTracer(0)
	nodeTr := tracer.Node("bench")
	e, err := openEngine(sc, 2, 2, false, func(opt *lsm.Options) {
		opt.CompactionStats = stats
		opt.Trace = nodeTr
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	reg := obs.NewRegistry()
	reg.Register(obs.Labels{"node": "bench"}, stats)
	reg.Register(obs.Labels{"node": "bench"}, storage.Meter{Device: e.mem})
	stopScrape := scrapeLoop(reg)

	traceEvery := uint64(math.Round(1 / client.DefaultTraceSampleRate))
	t, err := e.load(sc.Records, opsPerSec, func(i uint64, key, val []byte) error {
		if i%traceEvery != 0 {
			return e.db.Put(key, val)
		}
		rt := nodeTr.Request(i + 1)
		reqStart := time.Now()
		if err := e.db.PutTraced(key, val, rt); err != nil {
			return err
		}
		rt.Record(obs.Span{Cat: "request", Name: "put",
			Bytes: int64(len(key) + len(val)), Start: reqStart, Dur: time.Since(reqStart)})
		return nil
	})
	scrapes := stopScrape()
	if err != nil {
		return nil, err
	}
	t["scrapes"] = float64(scrapes)
	t["trace_spans"] = float64(len(tracer.Snapshot()))
	return t, nil
}

// runObservability measures the instrumentation tax on the compaction
// hot path: unpaced ns/op (the raw tax of the nil checks, span records,
// and shared stats) and paced throughput at the same offered load — the
// acceptance metric.
func runObservability(sc Scale, w io.Writer) (*measurement, error) {
	off, on, loss, err := pacedAB(func(on bool, opsPerSec float64) (trial, error) {
		return runObservabilityMode(sc, on, opsPerSec)
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{config: map[string]any{"value_size": loadValueSize}}
	m.add("off", off)
	m.add("on", on)
	m.metrics["overhead_ns_per_op_percent"] = overheadPercent(off["ns_per_op"], on["ns_per_op"], false)
	m.metrics["overhead_offered_load_percent"] = loss

	fmt.Fprintf(w, "Observability overhead on the compaction hot path (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %8s\n",
		"Config", "ns/op", "Kops/s", "paced Kop/s", "p99 µs", "spans")
	for _, r := range []mode{{"off", off}, {"on", on}} {
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %8.0f\n",
			r.name, r.t["ns_per_op"], r.t[kopsKey], r.t["paced_kops_per_sec"], r.t["p99_put_micros"], r.t["trace_spans"])
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% offered-load throughput\n",
		m.metrics["overhead_ns_per_op_percent"], loss)
	return m, nil
}
