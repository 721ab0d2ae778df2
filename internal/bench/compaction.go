package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/storage"
)

// CompactionModeResult measures one scheduler configuration.
type CompactionModeResult struct {
	Mode              string  `json:"mode"`
	CompactionWorkers int     `json:"compaction_workers"`
	L0Buffers         int     `json:"l0_buffers"`
	OfferedKopsPerSec float64 `json:"offered_kops_per_sec"`
	KOpsPerSec        float64 `json:"kops_per_sec"`
	P50PutMicros      float64 `json:"p50_put_micros"`
	P99PutMicros      float64 `json:"p99_put_micros"`
	WriterStalls      uint64  `json:"writer_stalls"`
	WriterStallMillis float64 `json:"writer_stall_millis"`
	Jobs              uint64  `json:"jobs"`
	SegmentsShipped   uint64  `json:"segments_shipped"`
	SegmentsEarly     uint64  `json:"segments_shipped_early"`
	OverlapFraction   float64 `json:"overlap_fraction"`
	MergeMillis       float64 `json:"merge_millis"`
	BuildMillis       float64 `json:"build_millis"`
	ShipMillis        float64 `json:"ship_millis"`
}

// CompactionReport is the serial-vs-pipelined comparison tebis-bench
// writes to BENCH_compaction.json.
type CompactionReport struct {
	Records   uint64               `json:"records"`
	ValueSize int                  `json:"value_size"`
	L0MaxKeys int                  `json:"l0_max_keys"`
	Serial    CompactionModeResult `json:"serial"`
	Pipelined CompactionModeResult `json:"pipelined"`
}

const compactionValueSize = 100

// waitUntil pauses the pacing loop until the scheduled arrival time
// with time.Sleep. Sleeping (rather than spinning the deadline down)
// matters on small machines: the yielded CPU is exactly the slack the
// compaction goroutines overlap into. Sleep jitter inflates both
// configurations' latencies equally.
func waitUntil(deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
}

// runCompactionMode loads sc.Records sequential keys into a bare engine
// with the given scheduler knobs and returns its measurements. The run
// is engine-level (no cluster, no simulated network) so the comparison
// isolates the compaction path itself.
//
// opsPerSec > 0 paces the writer at that offered load, like a YCSB
// target rate: arrivals are scheduled on a fixed clock and latency is
// measured from the scheduled arrival, so an engine stall shows up as
// queueing delay instead of being silently absorbed by a slower issue
// rate (coordinated omission). opsPerSec == 0 issues as fast as
// possible.
func runCompactionMode(sc Scale, mode string, workers, buffers int, opsPerSec float64) (CompactionModeResult, error) {
	res := CompactionModeResult{
		Mode:              mode,
		CompactionWorkers: workers,
		L0Buffers:         buffers,
		OfferedKopsPerSec: opsPerSec / 1000,
	}
	dev, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		return res, err
	}
	defer dev.Close()
	stats := &metrics.CompactionStats{}
	db, err := lsm.New(lsm.Options{
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         sc.L0MaxKeys,
		MaxLevels:         7,
		Seed:              1,
		CompactionWorkers: workers,
		L0Buffers:         buffers,
		CompactionStats:   stats,
	})
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
	hist := metrics.NewHistogram()
	start := time.Now()
	next := start
	for i := uint64(0); i < sc.Records; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		t0 := time.Now()
		if interval > 0 {
			next = next.Add(interval)
			waitUntil(next)
			t0 = next // latency counts from the scheduled arrival
		}
		if err := db.Put(key, val); err != nil {
			return res, err
		}
		hist.Record(time.Since(t0))
	}
	if err := db.Flush(); err != nil {
		return res, err
	}
	elapsed := time.Since(start)

	snap := db.CompactionStats()
	res.KOpsPerSec = float64(sc.Records) / elapsed.Seconds() / 1000
	res.P50PutMicros = float64(hist.Percentile(50).Nanoseconds()) / 1e3
	res.P99PutMicros = float64(hist.Percentile(99).Nanoseconds()) / 1e3
	res.WriterStalls = snap.WriterStalls
	res.WriterStallMillis = float64(snap.WriterStallTime.Nanoseconds()) / 1e6
	res.Jobs = snap.Jobs
	res.SegmentsShipped = snap.SegmentsShipped
	res.SegmentsEarly = snap.SegmentsShippedEarly
	res.OverlapFraction = snap.OverlapFraction()
	res.MergeMillis = float64(snap.MergeTime.Nanoseconds()) / 1e6
	res.BuildMillis = float64(snap.BuildTime.Nanoseconds()) / 1e6
	res.ShipMillis = float64(snap.ShipTime.Nanoseconds()) / 1e6
	return res, nil
}

// medianCompactionMode runs one configuration three times and returns
// the trial with the median writer-stall time.
func medianCompactionMode(sc Scale, mode string, workers, buffers int, opsPerSec float64) (CompactionModeResult, error) {
	trials := make([]CompactionModeResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := runCompactionMode(sc, mode, workers, buffers, opsPerSec)
		if err != nil {
			return CompactionModeResult{}, err
		}
		trials = append(trials, r)
	}
	sort.Slice(trials, func(i, j int) bool {
		return trials[i].WriterStallMillis < trials[j].WriterStallMillis
	})
	return trials[1], nil
}

// runCompaction compares the paper-faithful serial compactor (one
// worker, one frozen L0) against the staged scheduler (two workers,
// double-buffered L0) under an identical offered load, prints the
// comparison, and writes BENCH_compaction.json into outDir.
//
// The in-memory device makes an unthrottled writer orders of magnitude
// faster than compaction, which no amount of buffering can hide — every
// configuration just runs at the compactor's speed. Real deployments
// (and the paper's YCSB clients) offer a bounded load with slack for
// compaction to overlap, so the comparison first calibrates the serial
// engine's raw throughput and then drives both engines at half of it,
// where stalls measure scheduling, not raw compaction speed.
func runCompaction(sc Scale, w io.Writer, outDir string) error {
	calib, err := runCompactionMode(sc, "calibrate", 1, 1, 0)
	if err != nil {
		return err
	}
	rate := calib.KOpsPerSec * 1000 * 0.5
	// Median of three trials per mode: single-core scheduling noise can
	// dominate one run's stall accounting.
	serial, err := medianCompactionMode(sc, "serial", 1, 1, rate)
	if err != nil {
		return err
	}
	pipelined, err := medianCompactionMode(sc, "pipelined", 2, 2, rate)
	if err != nil {
		return err
	}
	report := CompactionReport{
		Records:   sc.Records,
		ValueSize: compactionValueSize,
		L0MaxKeys: sc.L0MaxKeys,
		Serial:    serial,
		Pipelined: pipelined,
	}

	fmt.Fprintf(w, "Compaction scheduler: serial vs pipelined (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %8s %10s %8s %8s\n",
		"Mode", "Kops/s", "p50 µs", "p99 µs", "Stalls", "Stall ms", "Jobs", "Overlap")
	for _, r := range []CompactionModeResult{serial, pipelined} {
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f %8d %10.1f %8d %7.0f%%\n",
			r.Mode, r.KOpsPerSec, r.P50PutMicros, r.P99PutMicros,
			r.WriterStalls, r.WriterStallMillis, r.Jobs, 100*r.OverlapFraction)
	}

	if outDir == "" {
		return nil
	}
	return writeReport(w, outDir, ExpCompaction, report)
}
