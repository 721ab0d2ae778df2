package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
)

// lagDelay is the injected per-write stall on the slow backup. It sits
// far below RetryPolicy.AckTimeout, so the primary must absorb it as
// lag — never as an eviction.
const lagDelay = 50 * time.Millisecond

// lagValueSize keeps the shipped records big enough that lag_bytes is
// meaningful alongside lag_ops.
const lagValueSize = 128

// lagDelayedOps bounds the delayed window: replication is synchronous
// per append, so each of these puts eats the full stall on the clock
// (~40 × 50ms ≈ 2s of wall time).
const lagDelayedOps = 40

// LagSample is one point of the lag time series, taken by a sampler
// goroutine polling the primary's lag tracker while the workload runs.
type LagSample struct {
	TMillis         float64 `json:"t_ms"`
	Phase           string  `json:"phase"`
	LagOps          uint64  `json:"lag_ops"`
	LagBytes        uint64  `json:"lag_bytes"`
	StalenessMillis float64 `json:"staleness_ms"`
}

// LagModeResult measures the put path with the lag tracker on or off,
// for the observability-overhead comparison.
type LagModeResult struct {
	LagTracking       bool    `json:"lag_tracking"`
	NsPerOp           float64 `json:"ns_per_op"`
	KOpsPerSec        float64 `json:"kops_per_sec"`
	OfferedKopsPerSec float64 `json:"offered_kops_per_sec"`
	PacedKOpsPerSec   float64 `json:"paced_kops_per_sec"`
}

// LagReport is the replication-plane health acceptance artifact
// (DESIGN.md §13): under an injected 50ms-delayed backup, the lag and
// staleness gauges must rise and then drain back to ~0 once the delay
// clears, with zero lost acks, zero wrong reads, and zero evictions —
// and the tracker itself must cost ≤5% at a fixed offered load.
type LagReport struct {
	Region      uint64  `json:"region"`
	Backup      string  `json:"backup"`
	DelayMillis float64 `json:"delay_ms"`

	BaselineOps int `json:"baseline_ops"`
	DelayedOps  int `json:"delayed_ops"`
	DrainOps    int `json:"drain_ops"`

	// AckedWrites is every put the client saw succeed, across all three
	// phases; each must read back its exact value afterwards.
	AckedWrites uint64 `json:"acked_writes"`
	LostAcks    uint64 `json:"lost_acks"`
	WrongReads  uint64 `json:"wrong_reads"`
	// Evictions counts backup_evicted journal events — a merely-slow
	// backup must never be declared dead (delay ≪ AckTimeout).
	Evictions uint64 `json:"evictions"`

	MaxLagOps          uint64  `json:"max_lag_ops"`
	MaxLagBytes        uint64  `json:"max_lag_bytes"`
	MaxStalenessMillis float64 `json:"max_staleness_ms"`

	FinalLagOps          uint64  `json:"final_lag_ops"`
	FinalLagBytes        uint64  `json:"final_lag_bytes"`
	FinalStalenessMillis float64 `json:"final_staleness_ms"`

	Off LagModeResult `json:"tracking_off"`
	On  LagModeResult `json:"tracking_on"`
	// OverheadOfferedLoadPercent compares paced throughput at the same
	// offered load, tracker on vs off (must stay ≤ 5%).
	OverheadOfferedLoadPercent float64 `json:"overhead_offered_load_percent"`

	Series []LagSample `json:"series,omitempty"`
}

func lagClusterConfig(sc Scale, disableLag bool) cluster.Config {
	return cluster.Config{
		Servers:     3,
		Regions:     1,
		Replicas:    1,
		Mode:        SendIndex.Mode(),
		SegmentSize: 64 << 10,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    sc.L0MaxKeys,
			MaxLevels:    7,
		},
		DisableLag: disableLag,
	}
}

func lagKey(i int) []byte { return []byte(fmt.Sprintf("lag%09d", i)) }

func lagValue(i int) []byte {
	v := make([]byte, lagValueSize)
	for j := range v {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

// runLagFault drives the fault-injection phase: baseline puts, a window
// of puts with every RDMA write into the backup stalled by lagDelay,
// then a drain, with a sampler goroutine recording the primary's lag
// tracker throughout. It fills the report's lag, staleness, and
// correctness fields.
func runLagFault(sc Scale, report *LagReport) error {
	c, err := cluster.New(lagClusterConfig(sc, false))
	if err != nil {
		return err
	}
	defer c.Close()

	rmap, err := c.Map()
	if err != nil {
		return err
	}
	var r region.Region
	for _, cand := range rmap.Regions {
		if len(cand.Backups) > 0 {
			r = cand
			break
		}
	}
	if r.Primary == "" || len(r.Backups) == 0 {
		return fmt.Errorf("bench: lag: no replicated region in the map")
	}
	backup := r.Backups[0]
	lag := c.Nodes[r.Primary].Server.Lag()
	regionID := uint64(r.ID)
	report.Region = regionID
	report.Backup = backup
	report.DelayMillis = float64(lagDelay) / float64(time.Millisecond)

	cl, err := c.NewClient()
	if err != nil {
		return err
	}
	defer cl.Close()

	baseline := int(sc.Ops / 20)
	if baseline < 200 {
		baseline = 200
	}
	report.BaselineOps = baseline
	report.DelayedOps = lagDelayedOps
	report.DrainOps = baseline

	// Sampler: poll the tracker every 5ms while the workload runs. The
	// 50ms stalls are wide against that period, so the series resolves
	// each rise (shipped, unacked) and fall (ack lands).
	var mu sync.Mutex
	phase := "baseline"
	setPhase := func(p string) { mu.Lock(); phase = p; mu.Unlock() }
	start := time.Now()
	takeSample := func() {
		ops, bytes := lag.Lag(regionID, backup)
		st := lag.Staleness(regionID, backup)
		mu.Lock()
		s := LagSample{
			TMillis:         float64(time.Since(start)) / float64(time.Millisecond),
			Phase:           phase,
			LagOps:          ops,
			LagBytes:        bytes,
			StalenessMillis: float64(st) / float64(time.Millisecond),
		}
		report.Series = append(report.Series, s)
		if ops > report.MaxLagOps {
			report.MaxLagOps = ops
		}
		if bytes > report.MaxLagBytes {
			report.MaxLagBytes = bytes
		}
		if s.StalenessMillis > report.MaxStalenessMillis {
			report.MaxStalenessMillis = s.StalenessMillis
		}
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			takeSample()
		}
	}()

	put := func(i int) error {
		if err := cl.Put(lagKey(i), lagValue(i)); err != nil {
			return fmt.Errorf("bench: lag: put %d: %w", i, err)
		}
		report.AckedWrites++
		return nil
	}

	n := 0
	for i := 0; i < baseline; i++ {
		if err := put(n); err != nil {
			return err
		}
		n++
	}
	// An unpaced baseline can finish inside one ticker period, so each
	// phase boundary also samples explicitly: every phase is guaranteed
	// at least one point in the series.
	takeSample()

	// Stall every RDMA write targeting the backup — value-log appends
	// and index-segment ships both ride QP.Write.
	setPhase("delayed")
	c.Nodes[backup].Server.Endpoint().InjectFault(
		func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
			if op == rdma.FaultWrite && to == backup {
				return rdma.Fault{Action: rdma.FaultDelay, Delay: lagDelay}
			}
			return rdma.Fault{}
		})
	for i := 0; i < lagDelayedOps; i++ {
		if err := put(n); err != nil {
			return err
		}
		n++
	}
	takeSample()
	c.Nodes[backup].Server.Endpoint().InjectFault(nil)

	setPhase("drain")
	for i := 0; i < baseline; i++ {
		if err := put(n); err != nil {
			return err
		}
		n++
	}
	takeSample()

	// The gauges must return to ~0 once the delay is gone: poll the
	// fast paths until the stream is fully acked (or time out and let
	// the final numbers convict us).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ops, _ := lag.Lag(regionID, backup)
		if ops == 0 && lag.Staleness(regionID, backup) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	ops, bytes := lag.Lag(regionID, backup)
	report.FinalLagOps = ops
	report.FinalLagBytes = bytes
	report.FinalStalenessMillis = float64(lag.Staleness(regionID, backup)) / float64(time.Millisecond)

	// Zero lost acks, zero wrong reads: every acked put must read back
	// its exact value.
	for i := 0; i < n; i++ {
		got, found, err := cl.Get(lagKey(i))
		if err != nil {
			return fmt.Errorf("bench: lag: get %d: %w", i, err)
		}
		if !found {
			report.LostAcks++
			continue
		}
		if string(got) != string(lagValue(i)) {
			report.WrongReads++
		}
	}
	report.Evictions = c.Events().Counts()[obs.EvBackupEvicted]
	return nil
}

// runLagMode prices the lag tracker itself: the same replicated put
// workload with the tracker on (every append records ship/ack and the
// gauges are live) or off (nil LagSet, record sites short-circuit).
func runLagMode(sc Scale, tracking bool, opsPerSec float64) (LagModeResult, error) {
	res := LagModeResult{LagTracking: tracking, OfferedKopsPerSec: opsPerSec / 1000}
	c, err := cluster.New(lagClusterConfig(sc, !tracking))
	if err != nil {
		return res, err
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		return res, err
	}
	defer cl.Close()

	// The whole op count per trial: paced trials must run long enough
	// (hundreds of ms) that one compaction stall doesn't decide the
	// overhead comparison.
	ops := int(sc.Ops)
	if ops < 2000 {
		ops = 2000
	}
	var interval time.Duration
	if opsPerSec > 0 {
		interval = time.Duration(float64(time.Second) / opsPerSec)
	}
	start := time.Now()
	next := start
	for i := 0; i < ops; i++ {
		if interval > 0 {
			next = next.Add(interval)
			waitUntil(next)
		}
		if err := cl.Put(lagKey(i), lagValue(i)); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
	res.KOpsPerSec = float64(ops) / elapsed.Seconds() / 1000
	return res, nil
}

// medianLagMode reruns one configuration and returns the
// median-throughput trial, damping single-core scheduler noise.
func medianLagMode(sc Scale, tracking bool, opsPerSec float64) (LagModeResult, error) {
	trials := make([]LagModeResult, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := runLagMode(sc, tracking, opsPerSec)
		if err != nil {
			return LagModeResult{}, err
		}
		trials = append(trials, r)
	}
	sort.Slice(trials, func(i, j int) bool {
		return trials[i].KOpsPerSec < trials[j].KOpsPerSec
	})
	return trials[1], nil
}

// runLag measures the replication-plane health acceptance: a 50ms
// delayed backup must show up as lag and staleness, drain to ~0 when
// the delay clears, lose nothing, and the tracker must be ~free.
func runLag(sc Scale, w io.Writer, outDir string) error {
	var report LagReport
	if err := runLagFault(sc, &report); err != nil {
		return err
	}

	// Offered-load comparison at half the unpaced tracker-off rate,
	// like the other overhead gates.
	off, err := runLagMode(sc, false, 0)
	if err != nil {
		return err
	}
	on, err := runLagMode(sc, true, 0)
	if err != nil {
		return err
	}
	rate := off.KOpsPerSec * 1000 * 0.5
	pacedOff, err := medianLagMode(sc, false, rate)
	if err != nil {
		return err
	}
	pacedOn, err := medianLagMode(sc, true, rate)
	if err != nil {
		return err
	}
	off.PacedKOpsPerSec = pacedOff.KOpsPerSec
	off.OfferedKopsPerSec = pacedOff.OfferedKopsPerSec
	on.PacedKOpsPerSec = pacedOn.KOpsPerSec
	on.OfferedKopsPerSec = pacedOn.OfferedKopsPerSec
	report.Off = off
	report.On = on
	if pacedOff.KOpsPerSec > 0 {
		loss := (pacedOff.KOpsPerSec - pacedOn.KOpsPerSec) / pacedOff.KOpsPerSec * 100
		if loss < 0 {
			loss = 0
		}
		report.OverheadOfferedLoadPercent = loss
	}

	fmt.Fprintf(w, "Replication lag under a %.0fms-delayed backup (region %d, backup %s)\n",
		report.DelayMillis, report.Region, report.Backup)
	fmt.Fprintf(w, "phases: %d baseline / %d delayed / %d drain puts (%d B values)\n",
		report.BaselineOps, report.DelayedOps, report.DrainOps, lagValueSize)
	fmt.Fprintf(w, "peak: lag %d ops / %d B, staleness %.1fms; final: lag %d ops, staleness %.2fms\n",
		report.MaxLagOps, report.MaxLagBytes, report.MaxStalenessMillis,
		report.FinalLagOps, report.FinalStalenessMillis)
	fmt.Fprintf(w, "%d acked writes: %d lost acks, %d wrong reads, %d evictions\n",
		report.AckedWrites, report.LostAcks, report.WrongReads, report.Evictions)
	fmt.Fprintf(w, "%-12s %10s %12s %12s\n", "Tracker", "ns/op", "Kops/s", "paced Kop/s")
	for _, r := range []LagModeResult{off, on} {
		name := "off"
		if r.LagTracking {
			name = "on"
		}
		fmt.Fprintf(w, "%-12s %10.0f %12.1f %12.1f\n",
			name, r.NsPerOp, r.KOpsPerSec, r.PacedKOpsPerSec)
	}
	fmt.Fprintf(w, "tracker offered-load cost %.2f%% (budget 5%%)\n",
		report.OverheadOfferedLoadPercent)

	if outDir == "" {
		return nil
	}
	var csv strings.Builder
	csv.WriteString("t_ms,phase,lag_ops,lag_bytes,staleness_ms\n")
	for _, s := range report.Series {
		fmt.Fprintf(&csv, "%.1f,%s,%d,%d,%.3f\n",
			s.TMillis, s.Phase, s.LagOps, s.LagBytes, s.StalenessMillis)
	}
	path := filepath.Join(outDir, "BENCH_fig13_lag.csv")
	if err := writeArtifact(w, path, []byte(csv.String())); err != nil {
		return err
	}
	return writeReport(w, outDir, ExpLag, report)
}
