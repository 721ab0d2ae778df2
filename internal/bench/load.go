package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
)

// This file is the measurement half of the harness: the one paced load
// loop, the one bare engine, the one median-of-3, and the one paced A/B
// protocol every overhead experiment runs through.

// trial is one run's measurements, keyed by the names they carry in
// Report.Metrics. Every trial has "kops_per_sec".
type trial map[string]float64

const kopsKey = "kops_per_sec"

// mode pairs a trial with the name its metrics are reported under.
type mode struct {
	name string
	t    trial
}

// newTrial starts a trial from a run's op count and wall-clock time.
func newTrial(ops uint64, elapsed time.Duration) trial {
	return trial{
		"ns_per_op": float64(elapsed.Nanoseconds()) / float64(ops),
		kopsKey:     float64(ops) / elapsed.Seconds() / 1000,
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// loadValueSize is the value size of the engine-level put loads.
const loadValueSize = 100

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

// pacer offers load like a YCSB target rate: arrivals are scheduled on
// a fixed clock and latency is measured from the scheduled arrival, so
// a stall shows up as queueing delay instead of being silently absorbed
// by a slower issue rate (coordinated omission). A zero rate issues as
// fast as possible.
type pacer struct {
	interval time.Duration
	next     time.Time
}

func newPacer(opsPerSec float64) *pacer {
	p := &pacer{next: time.Now()}
	if opsPerSec > 0 {
		p.interval = time.Duration(float64(time.Second) / opsPerSec)
	}
	return p
}

// arrive blocks until the next scheduled arrival and returns the time
// that op's latency counts from.
func (p *pacer) arrive() time.Time {
	if p.interval == 0 {
		return time.Now()
	}
	p.next = p.next.Add(p.interval)
	waitUntil(p.next)
	return p.next
}

// engine is the bare LSM engine the engine-level experiments load: no
// cluster and no simulated network, so a comparison isolates the engine
// path it toggles.
type engine struct {
	mem *storage.MemDevice
	db  *lsm.DB
}

// openEngine opens an engine on a fresh in-memory device with the
// harness's standard geometry. framed wraps the device in
// storage.AsVerifying; tune, when non-nil, adjusts the options before
// the engine opens.
func openEngine(sc Scale, framed bool, tune func(*lsm.Options)) (*engine, error) {
	mem, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		return nil, err
	}
	var dev storage.Device = mem
	if framed {
		dev = storage.AsVerifying(mem)
	}
	opt := lsm.Options{
		Device:       dev,
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    sc.L0MaxKeys,
		MaxLevels:    7,
		Seed:         1,
	}
	if tune != nil {
		tune(&opt)
	}
	db, err := lsm.New(opt)
	if err != nil {
		mem.Close()
		return nil, err
	}
	return &engine{mem: mem, db: db}, nil
}

func (e *engine) Close() {
	e.db.Close()
	e.mem.Close()
}

func loadKey(i uint64) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// put is the plain put for load.
func (e *engine) put(_ uint64, key, val []byte) error { return e.db.Put(key, val) }

// load drives n sequential-key puts through put at opsPerSec, flushes,
// and returns the measurements every engine-level experiment reports.
func (e *engine) load(n uint64, opsPerSec float64, put func(i uint64, key, val []byte) error) (trial, error) {
	val := make([]byte, loadValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	hist := metrics.NewHistogram()
	p := newPacer(opsPerSec)
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		key := loadKey(i)
		t0 := p.arrive()
		if err := put(i, key, val); err != nil {
			return nil, err
		}
		hist.Record(time.Since(t0))
	}
	if err := e.db.Flush(); err != nil {
		return nil, err
	}
	t := newTrial(n, time.Since(start))
	snap := e.db.CompactionStats()
	t["p50_put_micros"] = micros(hist.Percentile(50))
	t["p99_put_micros"] = micros(hist.Percentile(99))
	t["writer_stalls"] = float64(snap.WriterStalls)
	t["writer_stall_millis"] = millis(snap.WriterStallTime)
	t["jobs"] = float64(snap.Jobs)
	t["segments_shipped"] = float64(snap.SegmentsShipped)
	t["segments_shipped_early"] = float64(snap.SegmentsShippedEarly)
	t["overlap_fraction"] = snap.OverlapFraction()
	t["merge_millis"] = millis(snap.MergeTime)
	t["build_millis"] = millis(snap.BuildTime)
	t["ship_millis"] = millis(snap.ShipTime)
	return t, nil
}

// scrapeLoop renders reg's exposition as it starts and then every 10ms —
// a Prometheus server with a very aggressive interval — so
// exposition-time snapshot costs are charged to the run, and a run
// shorter than one interval is scraped too. The returned stop waits for
// the loop to exit and reports how many scrapes it made.
func scrapeLoop(reg *obs.Registry) (stop func() uint64) {
	quit := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var scrapes uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			_ = reg.WritePrometheus(io.Discard) // io.Discard cannot fail
			scrapes++
			select {
			case <-quit:
				done <- scrapes
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

// medianOf3 runs one configuration three times and returns the trial
// with the median value of key: single-core scheduling noise can
// dominate one run.
func medianOf3(key string, run func() (trial, error)) (trial, error) {
	trials := make([]trial, 3)
	for i := range trials {
		t, err := run()
		if err != nil {
			return nil, err
		}
		trials[i] = t
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i][key] < trials[j][key] })
	return trials[1], nil
}

// overheadPercent returns how much worse `with` is than `base`, as a
// percentage of base: a throughput is worse when lower, a cost (ns/op)
// when higher. Noise making the treated run better clamps to 0.
func overheadPercent(base, with float64, higherIsBetter bool) float64 {
	if base <= 0 {
		return 0
	}
	p := (with - base) / base * 100
	if higherIsBetter {
		p = -p
	}
	return max(p, 0)
}

// pacedAB is the one A/B protocol behind every overhead gate. run
// measures the system with the feature under test off or on, issuing at
// opsPerSec (0 = unpaced); its trial must carry "kops_per_sec".
//
// An unthrottled in-memory run is orders of magnitude faster than the
// background work it triggers, so it measures only that work's raw
// speed. Real deployments (and the paper's YCSB clients) offer a
// bounded load with slack for maintenance to overlap into. So both
// modes are first calibrated unpaced, then both are paced at half the
// *slower* mode's rate — a load each can sustain, so the comparison
// reads the feature's cost, not its capacity — median of three trials
// throughout.
//
// off and on are the unpaced medians with the paced outcome folded in
// as "offered_kops_per_sec" and "paced_kops_per_sec"; lossPercent is
// the paced throughput the feature costs, clamped at 0.
func pacedAB(run func(on bool, opsPerSec float64) (trial, error)) (off, on trial, lossPercent float64, err error) {
	median := func(on bool, opsPerSec float64) (trial, error) {
		return medianOf3(kopsKey, func() (trial, error) { return run(on, opsPerSec) })
	}
	if off, err = median(false, 0); err != nil {
		return nil, nil, 0, err
	}
	if on, err = median(true, 0); err != nil {
		return nil, nil, 0, err
	}
	rate := 0.5 * 1000 * min(off[kopsKey], on[kopsKey])
	if rate <= 0 {
		return nil, nil, 0, fmt.Errorf("bench: paced A/B: zero unpaced throughput")
	}
	pacedOff, err := median(false, rate)
	if err != nil {
		return nil, nil, 0, err
	}
	pacedOn, err := median(true, rate)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, m := range []struct{ unpaced, paced trial }{{off, pacedOff}, {on, pacedOn}} {
		m.unpaced["offered_kops_per_sec"] = rate / 1000
		m.unpaced["paced_kops_per_sec"] = m.paced[kopsKey]
	}
	return off, on, overheadPercent(pacedOff[kopsKey], pacedOn[kopsKey], true), nil
}
