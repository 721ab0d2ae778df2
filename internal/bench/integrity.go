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

// IntegrityModeResult measures the write and read hot paths with
// segment checksumming either on (every seal framed with a CRC32C
// trailer, every cold read re-verified) or off (raw device).
type IntegrityModeResult struct {
	Framed            bool    `json:"framed"`
	NsPerOp           float64 `json:"ns_per_op"`
	KOpsPerSec        float64 `json:"kops_per_sec"`
	OfferedKopsPerSec float64 `json:"offered_kops_per_sec"`
	PacedKOpsPerSec   float64 `json:"paced_kops_per_sec"`
	P99PutMicros      float64 `json:"p99_put_micros"`
	GetNsPerOp        float64 `json:"get_ns_per_op"`
	WriterStallMillis float64 `json:"writer_stall_millis"`
	Jobs              uint64  `json:"jobs"`
}

// IntegrityReport quantifies the cost of the crash-consistency layer
// (DESIGN.md §7) so future PRs can't silently regress it.
type IntegrityReport struct {
	Records   uint64 `json:"records"`
	ValueSize int    `json:"value_size"`
	L0MaxKeys int    `json:"l0_max_keys"`

	Raw    IntegrityModeResult `json:"raw"`
	Framed IntegrityModeResult `json:"framed"`

	// OverheadNsPerOpPercent compares unpaced put ns/op (framed vs raw):
	// the raw hot-path tax of CRC32C framing on seals.
	OverheadNsPerOpPercent float64 `json:"overhead_ns_per_op_percent"`
	// OverheadGetNsPerOpPercent compares the read-back path, where cold
	// reads verify whole segments before the first byte is served.
	OverheadGetNsPerOpPercent float64 `json:"overhead_get_ns_per_op_percent"`
	// OverheadOfferedLoadPercent compares paced throughput at the same
	// offered load — the acceptance metric (must stay ≤ 5%).
	OverheadOfferedLoadPercent float64 `json:"overhead_offered_load_percent"`
}

// runIntegrityMode loads sc.Records keys into a bare engine, as
// runObservabilityMode does, but toggles the integrity layer: when
// framed, the device is wrapped in storage.AsVerifying, so every log
// seal and index build pays the CRC32C trailer and every cold read
// pays a whole-segment verification.
func runIntegrityMode(sc Scale, framed bool, opsPerSec float64) (IntegrityModeResult, error) {
	res := IntegrityModeResult{Framed: framed,
		OfferedKopsPerSec: opsPerSec / 1000}
	mem, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		return res, err
	}
	defer mem.Close()
	var dev storage.Device = mem
	if framed {
		dev = storage.AsVerifying(mem)
	}

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
		if err := db.Put(key, val); err != nil {
			return res, err
		}
		hist.Record(time.Since(t0))
	}
	if err := db.Flush(); err != nil {
		return res, err
	}
	elapsed := time.Since(start)

	// Read-back pass: cold segments, so the framed run re-verifies each
	// segment once before serving from it.
	reads := sc.Records / 4
	if reads > 0 {
		stride := sc.Records / reads
		rstart := time.Now()
		for i := uint64(0); i < reads; i++ {
			key := []byte(fmt.Sprintf("user%012d", i*stride))
			if _, _, err := db.Get(key); err != nil {
				return res, err
			}
		}
		res.GetNsPerOp = float64(time.Since(rstart).Nanoseconds()) / float64(reads)
	}

	snap := db.CompactionStats()
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(sc.Records)
	res.KOpsPerSec = float64(sc.Records) / elapsed.Seconds() / 1000
	res.P99PutMicros = float64(hist.Percentile(99).Nanoseconds()) / 1e3
	res.WriterStallMillis = float64(snap.WriterStallTime.Nanoseconds()) / 1e6
	res.Jobs = snap.Jobs
	return res, nil
}

// medianIntegrityMode reruns one configuration and returns the
// median-throughput trial, damping single-core scheduler noise.
func medianIntegrityMode(sc Scale, framed bool, opsPerSec float64) (IntegrityModeResult, error) {
	trials := make([]IntegrityModeResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := runIntegrityMode(sc, framed, opsPerSec)
		if err != nil {
			return IntegrityModeResult{}, err
		}
		trials = append(trials, r)
	}
	sort.Slice(trials, func(i, j int) bool {
		return trials[i].KOpsPerSec < trials[j].KOpsPerSec
	})
	return trials[1], nil
}

// runIntegrity measures the checksum tax on the engine hot paths: the
// same paced-load protocol as the observability experiment, once on a
// raw device and once through storage.AsVerifying.
func runIntegrity(sc Scale, w io.Writer, outDir string) error {
	// Calibrate raw throughput on the unframed engine, then pace both
	// runs at half of it (see runCompaction for why unthrottled
	// in-memory runs measure only the compactor).
	calib, err := runIntegrityMode(sc, false, 0)
	if err != nil {
		return err
	}
	rate := calib.KOpsPerSec * 1000 * 0.5

	unpacedRaw, err := medianIntegrityMode(sc, false, 0)
	if err != nil {
		return err
	}
	unpacedFramed, err := medianIntegrityMode(sc, true, 0)
	if err != nil {
		return err
	}
	pacedRaw, err := medianIntegrityMode(sc, false, rate)
	if err != nil {
		return err
	}
	pacedFramed, err := medianIntegrityMode(sc, true, rate)
	if err != nil {
		return err
	}

	raw, fr := unpacedRaw, unpacedFramed
	raw.PacedKOpsPerSec = pacedRaw.KOpsPerSec
	fr.PacedKOpsPerSec = pacedFramed.KOpsPerSec
	report := IntegrityReport{
		Records:                   sc.Records,
		ValueSize:                 compactionValueSize,
		L0MaxKeys:                 sc.L0MaxKeys,
		Raw:                       raw,
		Framed:                    fr,
		OverheadNsPerOpPercent:    overheadPercent(unpacedRaw.NsPerOp, unpacedFramed.NsPerOp),
		OverheadGetNsPerOpPercent: overheadPercent(unpacedRaw.GetNsPerOp, unpacedFramed.GetNsPerOp),
	}
	if pacedRaw.KOpsPerSec > 0 {
		loss := (pacedRaw.KOpsPerSec - pacedFramed.KOpsPerSec) / pacedRaw.KOpsPerSec * 100
		if loss < 0 {
			loss = 0
		}
		report.OverheadOfferedLoadPercent = loss
	}

	fmt.Fprintf(w, "Checksum-frame overhead on the engine hot paths (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %10s\n",
		"Config", "ns/op", "Kops/s", "paced Kop/s", "p99 µs", "get ns/op")
	for _, r := range []IntegrityModeResult{raw, fr} {
		name := "raw"
		if r.Framed {
			name = "framed"
		}
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %10.0f\n",
			name, r.NsPerOp, r.KOpsPerSec, r.PacedKOpsPerSec, r.P99PutMicros, r.GetNsPerOp)
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% get ns/op, %.2f%% offered-load throughput\n",
		report.OverheadNsPerOpPercent, report.OverheadGetNsPerOpPercent,
		report.OverheadOfferedLoadPercent)

	if outDir == "" {
		return nil
	}
	return writeReport(w, outDir, ExpIntegrity, report)
}
