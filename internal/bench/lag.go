package bench

import (
	"fmt"
	"io"
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

// lagCSV is the sampled lag/staleness series across the three phases.
const lagCSV = "BENCH_fig13_lag.csv"

// lagGates is the replication-plane health acceptance (DESIGN.md
// "Observability"): under an injected 50ms-delayed backup the staleness
// gauge must rise and then drain back to ~0 once the delay clears, with
// zero lost acks, zero wrong reads and zero evictions — a merely-slow
// backup must never be declared dead (delay ≪ AckTimeout) — and the
// tracker itself may cost at most 5% at a fixed offered load.
var lagGates = []Gate{
	{Name: "lost-acks", Metric: "lost_acks", Op: "==", Budget: 0},
	{Name: "wrong-reads", Metric: "wrong_reads", Op: "==", Budget: 0},
	{Name: "evictions", Metric: "evictions", Op: "==", Budget: 0},
	{Name: "staleness-rises", Metric: "max_staleness_ms", Op: ">=", Budget: 25},
	{Name: "lag-drains", Metric: "final_lag_ops", Op: "==", Budget: 0},
	{Name: "staleness-drains", Metric: "final_staleness_ms", Op: "<=", Budget: 1},
	{Name: "overhead", Metric: "overhead_offered_load_percent", Op: "<=", Budget: 5, Timing: true},
	{Name: "csv-phases", Metric: "csv_phases_covered", Op: ">=", Budget: 3},
	artifactsGate(1),
}

// LagSample is one point of the lag time series, taken by a sampler
// goroutine polling the primary's lag tracker while the workload runs.
type LagSample struct {
	TMillis         float64 `json:"t_ms"`
	Phase           string  `json:"phase"`
	LagOps          uint64  `json:"lag_ops"`
	LagBytes        uint64  `json:"lag_bytes"`
	StalenessMillis float64 `json:"staleness_ms"`
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
// tracker throughout. It returns the measurement's config, the lag,
// staleness, and correctness metrics, and the sampled series.
func runLagFault(sc Scale) (*measurement, []LagSample, error) {
	c, err := cluster.New(lagClusterConfig(sc, false))
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	rmap, err := c.Map()
	if err != nil {
		return nil, nil, err
	}
	var r region.Region
	for _, cand := range rmap.Regions {
		if len(cand.Backups) > 0 {
			r = cand
			break
		}
	}
	if r.Primary == "" || len(r.Backups) == 0 {
		return nil, nil, fmt.Errorf("bench: lag: no replicated region in the map")
	}
	backup := r.Backups[0]
	lag := c.Nodes[r.Primary].Server.Lag()
	regionID := uint64(r.ID)

	cl, err := c.NewClient()
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()

	baseline := max(int(sc.Ops/20), 200)

	// Sampler: poll the tracker every 5ms while the workload runs. The
	// 50ms stalls are wide against that period, so the series resolves
	// each rise (shipped, unacked) and fall (ack lands).
	var (
		mu               sync.Mutex
		phase            = "baseline"
		series           []LagSample
		maxOps, maxBytes uint64
		maxStale         float64
	)
	setPhase := func(p string) { mu.Lock(); phase = p; mu.Unlock() }
	start := time.Now()
	takeSample := func() {
		ops, bytes := lag.Lag(regionID, backup)
		stale := millis(lag.Staleness(regionID, backup))
		mu.Lock()
		series = append(series, LagSample{
			TMillis:         millis(time.Since(start)),
			Phase:           phase,
			LagOps:          ops,
			LagBytes:        bytes,
			StalenessMillis: stale,
		})
		maxOps, maxBytes, maxStale = max(maxOps, ops), max(maxBytes, bytes), max(maxStale, stale)
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
	stopSampler := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopSampler()

	// puts issues the next count puts; n numbers every acked write.
	n := 0
	puts := func(count int) error {
		for end := n + count; n < end; n++ {
			if err := cl.Put(lagKey(n), lagValue(n)); err != nil {
				return fmt.Errorf("bench: lag: put %d: %w", n, err)
			}
		}
		// An unpaced phase can finish inside one ticker period, so each
		// phase boundary also samples explicitly: every phase is
		// guaranteed at least one point in the series.
		takeSample()
		return nil
	}

	if err := puts(baseline); err != nil {
		return nil, nil, err
	}
	// Stall every RDMA write targeting the backup — value-log appends,
	// index-segment ships and control requests all ride one.
	setPhase("delayed")
	c.Nodes[backup].Server.Endpoint().InjectFault(
		func(op rdma.FaultOp, from, to string, seq int, payload []byte) rdma.Fault {
			if op == rdma.FaultWrite && to == backup {
				return rdma.Fault{Action: rdma.FaultDelay, Delay: lagDelay}
			}
			return rdma.Fault{}
		})
	err = puts(lagDelayedOps)
	c.Nodes[backup].Server.Endpoint().InjectFault(nil)
	if err != nil {
		return nil, nil, err
	}
	setPhase("drain")
	if err := puts(baseline); err != nil {
		return nil, nil, err
	}

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
	stopSampler()
	finalOps, finalBytes := lag.Lag(regionID, backup)
	finalStale := millis(lag.Staleness(regionID, backup))

	// Zero lost acks, zero wrong reads: every acked put must read back
	// its exact value.
	var lost, wrong float64
	for i := 0; i < n; i++ {
		got, found, err := cl.Get(lagKey(i))
		if err != nil {
			return nil, nil, fmt.Errorf("bench: lag: get %d: %w", i, err)
		}
		if !found {
			lost++
		} else if string(got) != string(lagValue(i)) {
			wrong++
		}
	}
	return &measurement{
		config: map[string]any{"region": regionID, "backup": backup, "delay_ms": millis(lagDelay)},
		metrics: map[string]float64{
			"baseline_ops": float64(baseline),
			"delayed_ops":  lagDelayedOps,
			"drain_ops":    float64(baseline),
			// Every put the client saw succeed, across all three phases.
			"acked_writes": float64(n),
			"lost_acks":    lost,
			"wrong_reads":  wrong,
			// backup_evicted journal events.
			"evictions":          float64(c.Events().Counts()[obs.EvBackupEvicted]),
			"max_lag_ops":        float64(maxOps),
			"max_lag_bytes":      float64(maxBytes),
			"max_staleness_ms":   maxStale,
			"final_lag_ops":      float64(finalOps),
			"final_lag_bytes":    float64(finalBytes),
			"final_staleness_ms": finalStale,
		},
	}, series, nil
}

// runLagMode prices the lag tracker itself: the same replicated put
// workload with the tracker on (every append records ship/ack and the
// gauges are live) or off (nil LagSet, record sites short-circuit).
func runLagMode(sc Scale, tracking bool, opsPerSec float64) (trial, error) {
	c, err := cluster.New(lagClusterConfig(sc, !tracking))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// The whole op count per trial: paced trials must run long enough
	// (hundreds of ms) that one compaction stall doesn't decide the
	// overhead comparison.
	ops := max(int(sc.Ops), 2000)
	p := newPacer(opsPerSec)
	start := time.Now()
	for i := 0; i < ops; i++ {
		p.arrive()
		if err := cl.Put(lagKey(i), lagValue(i)); err != nil {
			return nil, err
		}
	}
	return newTrial(uint64(ops), time.Since(start)), nil
}

// runLag measures the replication-plane health acceptance: a 50ms
// delayed backup must show up as lag and staleness, drain to ~0 when
// the delay clears, lose nothing, and the tracker must be ~free.
func runLag(sc Scale, w io.Writer) (*measurement, error) {
	m, series, err := runLagFault(sc)
	if err != nil {
		return nil, err
	}
	off, on, loss, err := pacedAB(func(on bool, opsPerSec float64) (trial, error) {
		return runLagMode(sc, on, opsPerSec)
	})
	if err != nil {
		return nil, err
	}
	m.add("tracking_off", off)
	m.add("tracking_on", on)
	m.metrics["overhead_offered_load_percent"] = loss
	m.detail = map[string][]LagSample{"series": series}

	var csv strings.Builder
	csv.WriteString("t_ms,phase,lag_ops,lag_bytes,staleness_ms\n")
	phases := map[string]bool{}
	for _, s := range series {
		fmt.Fprintf(&csv, "%.1f,%s,%d,%d,%.3f\n",
			s.TMillis, s.Phase, s.LagOps, s.LagBytes, s.StalenessMillis)
		phases[s.Phase] = true
	}
	m.metrics["csv_phases_covered"] = float64(len(phases))
	m.csvs = [][]byte{[]byte(csv.String())}

	v := m.metrics
	fmt.Fprintf(w, "Replication lag under a %vms-delayed backup (region %v, backup %v)\n",
		m.config["delay_ms"], m.config["region"], m.config["backup"])
	fmt.Fprintf(w, "phases: %.0f baseline / %.0f delayed / %.0f drain puts (%d B values)\n",
		v["baseline_ops"], v["delayed_ops"], v["drain_ops"], lagValueSize)
	fmt.Fprintf(w, "peak: lag %.0f ops / %.0f B, staleness %.1fms; final: lag %.0f ops, staleness %.2fms\n",
		v["max_lag_ops"], v["max_lag_bytes"], v["max_staleness_ms"],
		v["final_lag_ops"], v["final_staleness_ms"])
	fmt.Fprintf(w, "%.0f acked writes: %.0f lost acks, %.0f wrong reads, %.0f evictions\n",
		v["acked_writes"], v["lost_acks"], v["wrong_reads"], v["evictions"])
	fmt.Fprintf(w, "%-12s %10s %12s %12s\n", "Tracker", "ns/op", "Kops/s", "paced Kop/s")
	for _, r := range []mode{{"off", off}, {"on", on}} {
		fmt.Fprintf(w, "%-12s %10.0f %12.1f %12.1f\n",
			r.name, r.t["ns_per_op"], r.t[kopsKey], r.t["paced_kops_per_sec"])
	}
	fmt.Fprintf(w, "tracker offered-load cost %.2f%%\n", loss)
	return m, nil
}
