// Package bench is the experiment harness: it assembles an in-process
// Tebis cluster, drives the paper's YCSB phases through real clients
// over the RDMA protocol, and reports the paper's four metrics —
// throughput (ops/s), efficiency (cycles/op), I/O amplification, and
// network amplification (§4) — plus tail-latency histograms (Figure 8)
// and the Table 3 cycle breakdown.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/replica"
	"tebis/internal/ycsb"
)

// Setup names the paper's four system configurations (§4, §5.5).
type Setup int

// Configurations under test.
const (
	// NoReplication runs primaries only.
	NoReplication Setup = iota
	// SendIndex is the paper's contribution.
	SendIndex
	// BuildIndex is the baseline: backups compact.
	BuildIndex
	// BuildIndexRL is Build-Index with the L0 shrunk to match
	// Send-Index's total memory budget (§5.5).
	BuildIndexRL
)

// String implements fmt.Stringer.
func (s Setup) String() string {
	switch s {
	case NoReplication:
		return "No-Replication"
	case SendIndex:
		return "Send-Index"
	case BuildIndex:
		return "Build-Index"
	case BuildIndexRL:
		return "Build-IndexRL"
	}
	return fmt.Sprintf("Setup(%d)", int(s))
}

// Mode maps a setup to its replication mode.
func (s Setup) Mode() replica.Mode {
	switch s {
	case SendIndex:
		return replica.SendIndex
	case BuildIndex, BuildIndexRL:
		return replica.BuildIndex
	default:
		return replica.NoReplication
	}
}

// Params configures one experiment run.
type Params struct {
	// Setup is the configuration under test.
	Setup Setup
	// Workload is the measured phase. Run phases are preceded by an
	// unmeasured Load A.
	Workload ycsb.Workload
	// Mix is the KV size distribution.
	Mix ycsb.SizeMix
	// Records is the Load A record count.
	Records uint64
	// Ops is the measured op count for Run phases (Load A measures its
	// Records inserts).
	Ops uint64
	// Replicas is the number of backups per region (1 = two-way).
	Replicas int
	// Servers, Regions size the cluster (defaults 3 and 6).
	Servers, Regions int
	// ClientThreads drives concurrency (default 8).
	ClientThreads int
	// L0MaxKeys is the per-region L0 capacity (default 1024;
	// Build-IndexRL divides it by replicas+1, §5.5).
	L0MaxKeys int
	// GrowthFactor is f (default 4, which minimizes I/O amplification).
	GrowthFactor int
	// SegmentSize and NodeSize scale the storage layout (defaults
	// 64 KiB and 512 B — the paper's 2 MiB and 4 KiB scaled down with
	// the dataset; see DESIGN.md "Packages and substitutions").
	SegmentSize int64
	NodeSize    int
	// Seed fixes the workload streams.
	Seed int64
}

func (p *Params) applyDefaults() {
	if p.Servers == 0 {
		p.Servers = 3
	}
	if p.Regions == 0 {
		p.Regions = 6
	}
	if p.ClientThreads == 0 {
		p.ClientThreads = 8
	}
	if p.L0MaxKeys == 0 {
		p.L0MaxKeys = 1024
	}
	if p.GrowthFactor == 0 {
		p.GrowthFactor = 4
	}
	if p.SegmentSize == 0 {
		p.SegmentSize = 64 << 10
	}
	if p.NodeSize == 0 {
		p.NodeSize = 512
	}
	if p.Records == 0 {
		p.Records = 30000
	}
	if p.Ops == 0 {
		p.Ops = p.Records
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Result is one experiment's measurements.
type Result struct {
	Setup    Setup
	Workload ycsb.Workload
	Mix      ycsb.SizeMix

	// Ops is the measured operation count.
	Ops uint64
	// Elapsed is the measured wall-clock time.
	Elapsed time.Duration
	// KOpsPerSec is measured throughput in Kops/s.
	KOpsPerSec float64
	// KCyclesPerOp is the simulated CPU efficiency in Kcycles/op.
	KCyclesPerOp float64
	// Breakdown is the per-op Table 3 cycle breakdown.
	Breakdown metrics.Breakdown
	// IOAmp is device_traffic / dataset_size.
	IOAmp float64
	// NetAmp is network_traffic / dataset_size.
	NetAmp float64
	// DatasetBytes is the user data moved by the measured requests.
	DatasetBytes uint64
	// Latency holds per-op-kind histograms (Figure 8).
	Latency map[ycsb.OpKind]*metrics.Histogram
}

// Run executes one experiment.
func Run(p Params) (Result, error) {
	p.applyDefaults()
	l0 := p.L0MaxKeys
	if p.Setup == BuildIndexRL {
		// §5.5: equalize the total L0 memory budget with Send-Index by
		// shrinking every L0 by the replica-set size.
		l0 = p.L0MaxKeys / (p.Replicas + 1)
		if l0 < 16 {
			l0 = 16
		}
	}
	replicas := p.Replicas
	if p.Setup == NoReplication {
		replicas = 0
	}
	c, err := cluster.New(cluster.Config{
		Servers:     p.Servers,
		Regions:     p.Regions,
		Replicas:    replicas,
		Mode:        p.Setup.Mode(),
		SegmentSize: p.SegmentSize,
		LSM: lsm.Options{
			NodeSize:     p.NodeSize,
			GrowthFactor: p.GrowthFactor,
			L0MaxKeys:    l0,
			MaxLevels:    7,
		},
		// The classic experiments reproduce the paper's prototype, which
		// ships raw segment images; the figures harness measures the
		// ship codec against this baseline (Fig. 10).
		ShipUncompressed: true,
	})
	if err != nil {
		return Result{}, err
	}
	defer c.Close()

	// The paper runs clients from two separate machines.
	clients := make([]*client.Client, 2)
	for i := range clients {
		if clients[i], err = c.NewClient(); err != nil {
			return Result{}, err
		}
		defer clients[i].Close()
	}

	res := Result{Setup: p.Setup, Workload: p.Workload, Mix: p.Mix}
	res.Latency = map[ycsb.OpKind]*metrics.Histogram{
		ycsb.OpInsert: metrics.NewHistogram(),
		ycsb.OpRead:   metrics.NewHistogram(),
		ycsb.OpUpdate: metrics.NewHistogram(),
	}

	if p.Workload != ycsb.LoadA {
		// Unmeasured load before the measured run phase.
		if _, err := runPhase(clients, p, ycsb.LoadA, nil, nil, nil); err != nil {
			return Result{}, err
		}
		if err := c.WaitIdle(); err != nil {
			return Result{}, err
		}
		c.ResetCounters()
	}
	stats, err := runPhase(clients, p, p.Workload, nil, res.Latency, nil)
	if err != nil {
		return Result{}, err
	}
	finalize(c, &res, stats)
	return res, nil
}

// phaseStats accumulates measured-phase counters.
type phaseStats struct {
	ops     atomic.Uint64
	dataset atomic.Uint64
	elapsed time.Duration
}

// runPhase executes workload wl sharded across client threads: Load A
// splits the record range, a Run A-D phase splits p.Ops. stats, when
// non-nil, is the externally owned accumulator (the figures experiment
// exposes it as live registry gauges); onOp, when non-nil, runs after
// every completed op (the figures experiment ticks its time-series
// sampler from there for deterministic sample density).
func runPhase(clients []*client.Client, p Params, wl ycsb.Workload, stats *phaseStats, lat map[ycsb.OpKind]*metrics.Histogram, onOp func()) (*phaseStats, error) {
	if stats == nil {
		stats = &phaseStats{}
	}
	threads := uint64(p.ClientThreads)
	total, seed := p.Ops, p.Seed*1000
	if wl == ycsb.LoadA {
		total, seed = p.Records, p.Seed
	}
	per := total / threads
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	start := time.Now()
	for t := uint64(0); t < threads; t++ {
		from, n := t*per, per
		if t == threads-1 {
			n = total - from
		}
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: wl,
			Records:  p.Records,
			Mix:      p.Mix,
			Seed:     seed + int64(t),
		})
		if wl == ycsb.LoadA {
			// The generator ends at the shard's last record.
			g.SetLoadRange(from, from+n)
			n = 0
		}
		cl := clients[t%uint64(len(clients))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := execStream(cl, g, n, stats, lat, onOp); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return stats, nil
}

// execStream issues ops from g through cl; n bounds the count (0 =
// until the generator ends). onOp, when non-nil, runs after every op.
func execStream(cl *client.Client, g *ycsb.Generator, n uint64, stats *phaseStats, lat map[ycsb.OpKind]*metrics.Histogram, onOp func()) error {
	var done uint64
	for n == 0 || done < n {
		op, ok := g.Next()
		if !ok {
			break
		}
		start := time.Now()
		switch op.Kind {
		case ycsb.OpInsert, ycsb.OpUpdate:
			if err := cl.Put(op.Key, op.Value); err != nil {
				return fmt.Errorf("%v %q: %w", op.Kind, op.Key[:8], err)
			}
			stats.dataset.Add(uint64(len(op.Key) + len(op.Value)))
		case ycsb.OpRead:
			v, _, err := cl.Get(op.Key)
			if err != nil {
				return fmt.Errorf("read %q: %w", op.Key[:8], err)
			}
			stats.dataset.Add(uint64(len(op.Key) + len(v)))
		case ycsb.OpScan:
			pairs, err := cl.Scan(op.Key, 16)
			if err != nil {
				return fmt.Errorf("scan: %w", err)
			}
			for _, pr := range pairs {
				stats.dataset.Add(uint64(pr.Size()))
			}
		}
		if lat != nil {
			if h, ok := lat[op.Kind]; ok {
				h.Record(time.Since(start))
			}
		}
		stats.ops.Add(1)
		if onOp != nil {
			onOp()
		}
		done++
	}
	return nil
}

// finalize drains compactions and computes the paper's metrics.
func finalize(c *cluster.Cluster, res *Result, stats *phaseStats) {
	// Drain all pending compactions so every setup is charged its full
	// maintenance work.
	_ = c.FlushAll()
	tot := c.Totals()
	res.Ops = stats.ops.Load()
	res.Elapsed = stats.elapsed
	res.DatasetBytes = stats.dataset.Load()
	if stats.elapsed > 0 {
		res.KOpsPerSec = float64(res.Ops) / stats.elapsed.Seconds() / 1000
	}
	res.KCyclesPerOp = metrics.Efficiency(tot.Cycles.Total(), res.Ops) / 1000
	res.Breakdown = tot.Cycles.PerOp(res.Ops)
	res.IOAmp = metrics.Amplification(tot.DeviceBytes, res.DatasetBytes)
	res.NetAmp = metrics.Amplification(tot.NetServerBytes, res.DatasetBytes)
}
