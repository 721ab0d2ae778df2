package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
)

// ObservabilityModeResult measures the compaction hot path with
// instrumentation either fully enabled (registry + tracer + a scraping
// loop) or fully off.
type ObservabilityModeResult struct {
	Instrumented      bool    `json:"instrumented"`
	NsPerOp           float64 `json:"ns_per_op"`
	KOpsPerSec        float64 `json:"kops_per_sec"`
	OfferedKopsPerSec float64 `json:"offered_kops_per_sec"`
	PacedKOpsPerSec   float64 `json:"paced_kops_per_sec"`
	P99PutMicros      float64 `json:"p99_put_micros"`
	WriterStallMillis float64 `json:"writer_stall_millis"`
	Jobs              uint64  `json:"jobs"`
	Scrapes           uint64  `json:"scrapes"`
	TraceSpans        int     `json:"trace_spans"`
}

// ObservabilityReport quantifies the hot-path cost of the obs layer on
// the compaction experiment so future PRs can't silently regress it.
type ObservabilityReport struct {
	Records   uint64 `json:"records"`
	ValueSize int    `json:"value_size"`
	L0MaxKeys int    `json:"l0_max_keys"`

	Off ObservabilityModeResult `json:"off"`
	On  ObservabilityModeResult `json:"on"`

	// OverheadNsPerOpPercent compares unpaced ns/op (on vs off): the raw
	// hot-path tax of the nil checks, span records, and shared stats.
	OverheadNsPerOpPercent float64 `json:"overhead_ns_per_op_percent"`
	// OverheadOfferedLoadPercent compares paced throughput at the same
	// offered load — the acceptance metric (must stay ≤ 5%).
	OverheadOfferedLoadPercent float64 `json:"overhead_offered_load_percent"`
}

// runObservabilityMode loads sc.Records keys into a bare engine, as
// runCompactionMode does, but toggles the full observability stack:
// when instrumented, the engine carries a tracer, its stats feed a
// live registry, and a background goroutine scrapes the exposition the
// whole run (the worst realistic case — a tight Prometheus loop).
func runObservabilityMode(sc Scale, instrumented bool, opsPerSec float64) (ObservabilityModeResult, error) {
	res := ObservabilityModeResult{Instrumented: instrumented,
		OfferedKopsPerSec: opsPerSec / 1000}
	dev, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		return res, err
	}
	defer dev.Close()

	opt := lsm.Options{
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         sc.L0MaxKeys,
		MaxLevels:         7,
		Seed:              1,
		CompactionWorkers: 2,
		L0Buffers:         2,
	}
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
		nodeTr *obs.Tracer
		stop   chan struct{}
		done   chan uint64
	)
	if instrumented {
		stats := &metrics.CompactionStats{}
		tracer = obs.NewTracer(0)
		nodeTr = tracer.Node("bench")
		opt.CompactionStats = stats
		opt.Trace = nodeTr
		reg = obs.NewRegistry()
		reg.RegisterCompaction(obs.Labels{"node": "bench"}, stats)
		reg.RegisterDevice(obs.Labels{"node": "bench"}, dev)

		// Scrape continuously, like a Prometheus server with a very
		// aggressive interval, so exposition-time snapshot costs are
		// charged to the run.
		stop = make(chan struct{})
		done = make(chan uint64)
		go func() {
			var scrapes uint64
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					done <- scrapes
					return
				case <-tick.C:
					_ = reg.WritePrometheus(io.Discard)
					scrapes++
				}
			}
		}()
	}

	db, err := lsm.New(opt)
	if err != nil {
		return res, err
	}
	defer db.Close()

	val := make([]byte, compactionValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var interval time.Duration
	if opsPerSec > 0 {
		interval = time.Duration(float64(time.Second) / opsPerSec)
	}
	// The instrumented run also pays for request-scoped tracing at the
	// client default head-sampling rate, so the overhead gate covers the
	// traced-put hot path, not just registry scraping.
	traceEvery := uint64(math.Round(1 / client.DefaultTraceSampleRate))
	hist := metrics.NewHistogram()
	start := time.Now()
	next := start
	for i := uint64(0); i < sc.Records; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		t0 := time.Now()
		if interval > 0 {
			next = next.Add(interval)
			waitUntil(next)
			t0 = next
		}
		if instrumented && i%traceEvery == 0 {
			rt := nodeTr.Request(i + 1)
			reqStart := time.Now()
			if err := db.PutTraced(key, val, rt); err != nil {
				return res, err
			}
			rt.Record(obs.Span{Cat: "request", Name: "put",
				Bytes: int64(len(key) + len(val)), Start: reqStart, Dur: time.Since(reqStart)})
		} else if err := db.Put(key, val); err != nil {
			return res, err
		}
		hist.Record(time.Since(t0))
	}
	if err := db.Flush(); err != nil {
		return res, err
	}
	elapsed := time.Since(start)

	if instrumented {
		close(stop)
		res.Scrapes = <-done
		res.TraceSpans = len(tracer.Snapshot())
	}
	snap := db.CompactionStats()
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(sc.Records)
	res.KOpsPerSec = float64(sc.Records) / elapsed.Seconds() / 1000
	res.P99PutMicros = float64(hist.Percentile(99).Nanoseconds()) / 1e3
	res.WriterStallMillis = float64(snap.WriterStallTime.Nanoseconds()) / 1e6
	res.Jobs = snap.Jobs
	return res, nil
}

// medianObservabilityMode reruns one configuration and returns the
// median-throughput trial, damping single-core scheduler noise.
func medianObservabilityMode(sc Scale, instrumented bool, opsPerSec float64) (ObservabilityModeResult, error) {
	trials := make([]ObservabilityModeResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := runObservabilityMode(sc, instrumented, opsPerSec)
		if err != nil {
			return ObservabilityModeResult{}, err
		}
		trials = append(trials, r)
	}
	sort.Slice(trials, func(i, j int) bool {
		return trials[i].KOpsPerSec < trials[j].KOpsPerSec
	})
	return trials[1], nil
}

// overheadPercent returns how much worse `with` is than `without`, as a
// percentage of `without`; negative values (noise making the
// instrumented run faster) clamp to 0.
func overheadPercent(without, with float64) float64 {
	if without <= 0 {
		return 0
	}
	p := (with - without) / without * 100
	if p < 0 {
		return 0
	}
	return p
}

// runObservability measures the instrumentation tax on the compaction
// hot path: the same paced-load protocol as the compaction experiment,
// once with no observability and once with the registry, tracer, and a
// continuous scraper attached.
func runObservability(sc Scale, w io.Writer, outDir string) error {
	// Calibrate raw throughput on the uninstrumented engine, then pace
	// both runs at half of it (see runCompaction for why unthrottled
	// in-memory runs measure only the compactor).
	calib, err := runObservabilityMode(sc, false, 0)
	if err != nil {
		return err
	}
	rate := calib.KOpsPerSec * 1000 * 0.5

	// Unpaced runs give the raw ns/op comparison…
	unpacedOff, err := medianObservabilityMode(sc, false, 0)
	if err != nil {
		return err
	}
	unpacedOn, err := medianObservabilityMode(sc, true, 0)
	if err != nil {
		return err
	}
	// …and paced runs give the offered-load acceptance metric.
	pacedOff, err := medianObservabilityMode(sc, false, rate)
	if err != nil {
		return err
	}
	pacedOn, err := medianObservabilityMode(sc, true, rate)
	if err != nil {
		return err
	}

	off, on := unpacedOff, unpacedOn
	off.PacedKOpsPerSec = pacedOff.KOpsPerSec
	on.PacedKOpsPerSec = pacedOn.KOpsPerSec
	report := ObservabilityReport{
		Records:                sc.Records,
		ValueSize:              compactionValueSize,
		L0MaxKeys:              sc.L0MaxKeys,
		Off:                    off,
		On:                     on,
		OverheadNsPerOpPercent: overheadPercent(unpacedOff.NsPerOp, unpacedOn.NsPerOp),
	}
	// Offered-load overhead is throughput lost when instrumented:
	// off faster than on → positive overhead, noise clamps to 0.
	if pacedOff.KOpsPerSec > 0 {
		loss := (pacedOff.KOpsPerSec - pacedOn.KOpsPerSec) / pacedOff.KOpsPerSec * 100
		if loss < 0 {
			loss = 0
		}
		report.OverheadOfferedLoadPercent = loss
	}

	fmt.Fprintf(w, "Observability overhead on the compaction hot path (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %8s\n",
		"Config", "ns/op", "Kops/s", "paced Kop/s", "p99 µs", "spans")
	for _, r := range []ObservabilityModeResult{off, on} {
		name := "off"
		if r.Instrumented {
			name = "on"
		}
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %8d\n",
			name, r.NsPerOp, r.KOpsPerSec, r.PacedKOpsPerSec, r.P99PutMicros, r.TraceSpans)
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% offered-load throughput\n",
		report.OverheadNsPerOpPercent, report.OverheadOfferedLoadPercent)

	if outDir == "" {
		return nil
	}
	return writeReport(w, outDir, ExpObservability, report)
}
