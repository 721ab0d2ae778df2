package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/ycsb"
)

// rig is a running cluster with its two closed-loop clients.
type rig struct {
	c       *cluster.Cluster
	clients [numClients]*client.Client
	// comp is the compaction sink shared by every region of every node
	// (cluster.Config.LSM is the per-region template).
	comp *metrics.CompactionStats
}

func (r *rig) close() {
	for _, cl := range r.clients {
		if cl != nil {
			cl.Close()
		}
	}
	r.c.Close()
}

// setUp brings up the cluster of ISSUE 11 (3 servers, 6 regions,
// Send-Index with one backup per region, ship codec on), preloads
// sz.records through both clients, drains compactions, warms up, and
// zeroes the counters. The CPU time it takes is setup_s.
func setUp(w workloadDef, sz sizes, seed int64) (*rig, error) {
	r := &rig{comp: &metrics.CompactionStats{}}
	c, err := cluster.New(cluster.Config{
		Servers:     numServers,
		Regions:     numRegions,
		Replicas:    1,
		Mode:        replica.SendIndex,
		SegmentSize: segmentSize,
		LSM: lsm.Options{
			NodeSize:        nodeSize,
			GrowthFactor:    growth,
			L0MaxKeys:       l0MaxKeys,
			MaxLevels:       maxLevels,
			CompactionStats: r.comp,
		},
	})
	if err != nil {
		return nil, err
	}
	r.c = c
	for t := range r.clients {
		if r.clients[t], err = c.NewClient(); err != nil {
			r.close()
			return nil, err
		}
	}
	if err := r.preload(w, sz, seed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) preload(w workloadDef, sz sizes, seed int64) error {
	if sz.records == 0 {
		return nil
	}
	// Preload, then warm up with ops from a stream of its own (seed
	// offset), so the measured stream starts where the ladder's does.
	warm := newStream(w, sz, seed+1<<32)
	err := r.bothClients(func(t int) error {
		g := preloadStream(w, sz, t)
		for {
			op, ok := g.Next()
			if !ok {
				return nil
			}
			if err := r.clients[t].Put(op.Key, op.Value); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	})
	if err != nil {
		return err
	}
	if err := r.c.FlushAll(); err != nil {
		return err
	}
	err = r.bothClients(func(t int) error {
		for j := 0; j < sz.warmupOps()/numClients; j++ {
			op, _ := warm.gens[t].Next()
			if rp := issue(r.clients[t], op); rp.err != nil {
				return fmt.Errorf("warm-up: %w", rp.err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.c.WaitIdle(); err != nil {
		return err
	}
	r.c.ResetCounters()
	return nil
}

// bothClients runs fn once per client, each on its own goroutine, and
// returns the first error.
func (r *rig) bothClients(fn func(t int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for t := 0; t < numClients; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = fn(t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reply is what came back from one op.
type reply struct {
	value []byte // get
	found bool   // get
	pairs []kv.Pair
	err   error
}

// issue sends one op through cl and waits for its reply.
func issue(cl *client.Client, op ycsb.Op) (rp reply) {
	switch op.Kind {
	case ycsb.OpRead:
		rp.value, rp.found, rp.err = cl.Get(op.Key)
	case ycsb.OpScan:
		rp.pairs, rp.err = cl.Scan(op.Key, scanLen)
	default:
		rp.err = cl.Put(op.Key, op.Value)
	}
	return rp
}

// check judges the reply to op and counts the user bytes it moved.
func (rp reply) check(op ycsb.Op, orc *oracle) (good bool, moved int) {
	switch op.Kind {
	case ycsb.OpRead:
		return rp.err == nil && orc.checkGet(op.Key, rp.value, rp.found), len(op.Key) + len(rp.value)
	case ycsb.OpScan:
		for _, p := range rp.pairs {
			moved += p.Size()
		}
		return rp.err == nil && checkScan(op.Key, rp.pairs), moved
	default:
		return rp.err == nil, len(op.Key) + len(op.Value)
	}
}

// clientLog is what one client goroutine records in the measured phase.
// Slot j belongs to op index numClients*j+t of the stream.
type clientLog struct {
	kinds []ycsb.OpKind
	lat   []int64 // issue to reply, ns
	// cuts[k] is how many of this client's ops had completed when window
	// k of the measured phase ended.
	cuts   []int
	starts []int64 // ns since the phase began; traced runs only
	failed int64
	// userBytes is key+value bytes moved by requests; insertBytes the
	// part of it that created records (live data).
	userBytes   uint64
	insertBytes uint64
	acked       []uint64 // load_sd: record indices acknowledged
}

// clusterResult is one measured cluster phase.
type clusterResult struct {
	logs      [numClients]clientLog
	ops       int
	attempted int64
	failed    int64
	wall      time.Duration // first op until FlushAll returned
	drain     time.Duration // the FlushAll alone
	setup     time.Duration // CPU time of the set-up

	totals    cluster.Totals
	comp      metrics.CompactionSnapshot
	ship      metrics.ShipSnapshot
	liveBytes uint64 // live user bytes: preload + records inserted
	devBytes  uint64 // allocated device segments x segment size
	userBytes uint64

	mallocs  uint64
	memSys   uint64
	gcPause  time.Duration
	cpu      time.Duration // process CPU time over wall
	stale    uint64
	overload uint64
	failover time.Duration
}

// runCluster sets up a cluster and measures the first n ops of w's
// stream through it, closed loop, one goroutine per client. traced
// additionally records each op's start time, which is all a span needs
// beyond the latency an untraced run keeps anyway.
func runCluster(w workloadDef, sz sizes, seed int64, n int, seconds int, traced bool) (*clusterResult, error) {
	t0 := cpuTime()
	r, err := setUp(w, sz, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &clusterResult{setup: cpuTime() - t0}

	s := newStream(w, sz, seed)
	per := n / numClients
	for t := range res.logs {
		l := &res.logs[t]
		l.kinds = make([]ycsb.OpKind, 0, per)
		l.lat = make([]int64, 0, per)
		if traced {
			l.starts = make([]int64, 0, per)
		}
	}
	compBefore := r.comp.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	// Op counts are fixed; the deadline only keeps a run on a much
	// slower machine inside the driver's time limit.
	begin := time.Now()
	deadline := begin.Add(2 * time.Duration(seconds) * time.Second)
	err = r.bothClients(func(t int) error {
		l := &res.logs[t]
		orc := newOracle(w.Mix)
		cl := r.clients[t]
		for j := 0; j < per; j++ {
			op, ok := s.gens[t].Next()
			if !ok {
				break
			}
			start := time.Now()
			if start.After(deadline) {
				break
			}
			rp := issue(cl, op)
			lat := int64(time.Since(start))
			for end := int64(start.Sub(begin)) + lat; end >= int64(len(l.cuts)+1)*int64(window); {
				l.cuts = append(l.cuts, len(l.lat))
			}
			l.lat = append(l.lat, lat)
			good, moved := rp.check(op, orc)
			if good && op.Kind == ycsb.OpInsert {
				l.insertBytes += uint64(moved)
				if w.Phase == ycsb.LoadA {
					rec, _ := recordOf(op.Key)
					l.acked = append(l.acked, rec)
				}
			}
			l.kinds = append(l.kinds, op.Kind)
			if traced {
				l.starts = append(l.starts, int64(start.Sub(begin)))
			}
			if !good {
				l.failed++
			}
			l.userBytes += uint64(moved)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Drain, so every run is charged its full compaction and ship work.
	drainStart := time.Now()
	if err := r.c.FlushAll(); err != nil {
		return nil, err
	}
	res.drain = time.Since(drainStart)
	res.wall = time.Since(begin)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.memSys = ms1.Sys
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	res.totals = r.c.Totals()
	comp := r.comp.Snapshot()
	res.comp = metrics.CompactionSnapshot{
		Jobs:            comp.Jobs - compBefore.Jobs,
		MergeTime:       comp.MergeTime - compBefore.MergeTime,
		BuildTime:       comp.BuildTime - compBefore.BuildTime,
		ShipTime:        comp.ShipTime - compBefore.ShipTime,
		WriterStalls:    comp.WriterStalls - compBefore.WriterStalls,
		WriterStallTime: comp.WriterStallTime - compBefore.WriterStallTime,
	}
	for _, node := range r.c.Nodes {
		sh := node.Server.ShipStats().Snapshot()
		res.ship.RawBytes += sh.RawBytes
		res.ship.WireBytes += sh.WireBytes
		res.ship.FullSegments += sh.FullSegments
		res.ship.DeltaSegments += sh.DeltaSegments
		res.ship.Fallbacks += sh.Fallbacks
		res.devBytes += node.Device.Stats().SegmentsLive * segmentSize
	}
	res.liveBytes = w.Mix.DatasetBytes(sz.records)
	var inserted uint64
	for t := range res.logs {
		l := &res.logs[t]
		res.ops += len(l.lat)
		res.failed += l.failed
		res.userBytes += l.userBytes
		res.stale += r.clients[t].StaleRetries()
		res.overload += r.clients[t].OverloadRetries()
		if w.Phase == ycsb.LoadA {
			inserted += l.insertBytes // the clients load disjoint ranges
		} else if l.insertBytes > inserted {
			inserted = l.insertBytes // Run E clients insert the same records
		}
	}
	res.liveBytes += inserted
	res.attempted = int64(res.ops)

	if w.Phase == ycsb.LoadA {
		if err := res.checkFailover(r, w, sz, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkFailover crashes the server holding most primaries and reads a
// sample of acknowledged keys whose regions it served, now through the
// promoted Send-Index backups. A wrong or missing value is a lost ack.
func (res *clusterResult) checkFailover(r *rig, w workloadDef, sz sizes, seed int64) error {
	rmap, err := r.c.Map()
	if err != nil {
		return err
	}
	victim := busiestPrimary(rmap)
	start := time.Now()
	if err := r.c.Crash(victim); err != nil {
		return err
	}
	res.failover = time.Since(start)

	var acked []uint64
	for t := range res.logs {
		acked = append(acked, res.logs[t].acked...)
	}
	if len(acked) == 0 {
		return nil
	}
	cl, err := r.c.NewClient()
	if err != nil {
		return err
	}
	defer cl.Close()
	rnd := rand.New(rand.NewSource(seed))
	orc, probe := newOracle(w.Mix), newOracle(w.Mix)
	// A third of the keys route to the victim's regions; bound the search
	// so a map that routes none there cannot spin.
	for reads, tries := 0, 0; reads < sz.failoverReads && tries < 20*sz.failoverReads; tries++ {
		rec := acked[rnd.Intn(len(acked))]
		key, _ := probe.pair(rec)
		reg, err := rmap.Lookup(key)
		if err != nil {
			return err
		}
		if reg.Primary != victim {
			continue
		}
		reads++
		res.attempted++
		v, found, err := cl.Get(key)
		if err != nil || !orc.checkGet(key, v, found) {
			res.failed++
		}
	}
	return nil
}

// busiestPrimary names the server that is primary for most regions
// (the first by name on a tie, so the choice is deterministic).
func busiestPrimary(rmap *region.Map) string {
	count := map[string]int{}
	for _, reg := range rmap.Regions {
		count[reg.Primary]++
	}
	names := make([]string, 0, len(count))
	for name := range count {
		names = append(names, name)
	}
	sort.Strings(names)
	best := names[0]
	for _, name := range names {
		if count[name] > count[best] {
			best = name
		}
	}
	return best
}

// cpuTime is the process's user+system CPU time so far: the clock of
// setup_s, which has no windows to pick the quiet ones from. The
// benchmark runs on one thread that is busy 98-99% of the time (numProcs),
// so on an idle host this clock and the wall clock agree; on a shared
// host this one leaves out the time the host ran someone else.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies returns the sorted latencies (ns) of the ops for which keep
// returns true.
func (res *clusterResult) latencies(keep func(ycsb.OpKind) bool) []int64 {
	var out []int64
	for t := range res.logs {
		l := &res.logs[t]
		for j, d := range l.lat {
			if keep(l.kinds[j]) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func anyKind(ycsb.OpKind) bool     { return true }
func isRead(k ycsb.OpKind) bool    { return k == ycsb.OpRead }
func isScan(k ycsb.OpKind) bool    { return k == ycsb.OpScan }
func isWriteOp(k ycsb.OpKind) bool { return k == ycsb.OpInsert || k == ycsb.OpUpdate }

// measureSetups repeats the set-up after the measured run (so the
// extra clusters cannot disturb it): at least twice more, and for as
// long as set-ups are cheap enough that a handful would be noise, up to
// maxSetupReps. It returns every set-up time including first.
func measureSetups(w workloadDef, sz sizes, seed int64, first time.Duration) ([]float64, error) {
	const (
		minReps      = 3
		maxSetupReps = 25
		cheap        = 500 * time.Millisecond
	)
	times := []float64{first.Seconds()}
	total := first
	for len(times) < minReps || (total < cheap && len(times) < maxSetupReps) {
		runtime.GC() // the previous cluster is garbage; collect it outside the timing
		t0 := cpuTime()
		r, err := setUp(w, sz, seed)
		if err != nil {
			return nil, err
		}
		d := cpuTime() - t0
		r.close()
		times = append(times, d.Seconds())
		total += d
	}
	return times, nil
}

// window is the slice of the measured phase over which one throughput
// and one pair of latency percentiles is taken; a window in which fewer
// than minWindowOps ops completed (a writer stall) is left out, because
// its percentiles would rest on too few samples to compare.
const (
	window       = 500 * time.Millisecond
	minWindowOps = 1000
)

// windowStat is what one window of the measured phase saw: the ops that
// completed in it, per second, and their latency percentiles.
type windowStat struct {
	ops      int
	kops     float64
	p50, p99 int64 // ns
}

// windows cuts the measured phase into whole windows (what follows the
// slower client's last cut is dropped). A phase without one window of
// minWindowOps ops is one window.
func (res *clusterResult) windows() []windowStat {
	n := len(res.logs[0].cuts)
	for t := range res.logs {
		n = min(n, len(res.logs[t].cuts))
	}
	var out []windowStat
	var lat []int64
	for k := 0; k < n; k++ {
		lat = lat[:0]
		for t := range res.logs {
			l := &res.logs[t]
			from := 0
			if k > 0 {
				from = l.cuts[k-1]
			}
			lat = append(lat, l.lat[from:l.cuts[k]]...)
		}
		if len(lat) >= minWindowOps {
			out = append(out, newWindowStat(lat, window))
		}
	}
	if len(out) == 0 {
		out = append(out, newWindowStat(res.latencies(anyKind), res.wall))
	}
	return out
}

func newWindowStat(lat []int64, d time.Duration) windowStat {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ws := windowStat{ops: len(lat), kops: float64(len(lat)) / d.Seconds() / 1e3}
	ws.p50, _ = percentile(lat, 50)
	ws.p99, _ = percentile(lat, 99)
	return ws
}
