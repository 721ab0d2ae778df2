package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"tebis/internal/metrics"
	"tebis/internal/ycsb"
)

// metricValue is one reported number. Samples is how many observations
// stand behind it (ops for a latency percentile, set-ups for setup_s);
// it travels in result files and the printed table, not in the
// driver's result line.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// measurement is the outcome of one benchmark invocation.
type measurement struct {
	Metrics   map[string]metricValue
	Attempted int64
	Failed    int64
}

func (m *measurement) put(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.Name == name {
			m.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue") // a bug in this package
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// runUntraced measures w's full op count with tracing off and reports
// the end-to-end metrics.
func runUntraced(w workloadDef, sz sizes, seed int64, seconds int) (*measurement, error) {
	res, err := runCluster(w, sz, seed, sz.ops, seconds, false)
	if err != nil {
		return nil, err
	}
	if res.ops == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	setups, err := measureSetups(w, sz, seed, res.setup)
	if err != nil {
		return nil, err
	}
	m := &measurement{Metrics: map[string]metricValue{}, Attempted: res.attempted, Failed: res.failed}
	ops := float64(res.ops)
	win := res.windows()
	kops, p50s, p99s := make([]float64, len(win)), make([]float64, len(win)), make([]float64, len(win))
	for k, ws := range win {
		kops[k], p50s[k], p99s[k] = ws.kops, us(ws.p50), us(ws.p99)
	}
	put := func(name string, v float64, samples int) { m.put(endToEnd, name, v, samples) }
	put("throughput_kops", quietMean(kops, true), len(win))
	put("p50_us", quietMean(p50s, false), len(win))
	put("p99_us", quietMean(p99s, false), len(win))
	put("kcycles_per_op", float64(res.totals.Cycles.Total())/ops/1e3, res.ops)
	put("io_amp", metrics.Amplification(res.totals.DeviceBytes, res.userBytes), res.ops)
	put("net_amp", metrics.Amplification(res.totals.NetServerBytes, res.userBytes), res.ops)
	put("space_amp", metrics.Amplification(res.devBytes, res.liveBytes), 1)
	put("allocs_per_op", float64(res.mallocs)/ops, res.ops)
	put("mem_sys_mb", float64(res.memSys)/(1<<20), 1)
	put("setup_s", median(setups), len(setups))
	return m, nil
}

// runTraced reports the per-layer metrics: two cluster runs at the
// ladder's op count, the second recording spans (their throughput
// difference is the tracing overhead), then the ladder. The sampled
// spans go to dir/trace-<workload>.jsonl.
func runTraced(w workloadDef, sz sizes, seed int64, seconds int, dir string) (*measurement, error) {
	base, err := runCluster(w, sz, seed, sz.ladderOps, seconds, false)
	if err != nil {
		return nil, err
	}
	// Hand the first run's heap back, so the second starts as cold as the
	// first did and the overhead compares like with like.
	debug.FreeOSMemory()
	res, err := runCluster(w, sz, seed, sz.ladderOps, seconds, true)
	if err != nil {
		return nil, err
	}
	if res.ops == 0 || base.ops == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	lad, err := runLadder(w, sz, seed)
	if err != nil {
		return nil, err
	}

	m := &measurement{
		Metrics:   map[string]metricValue{},
		Attempted: base.attempted + res.attempted,
		Failed:    base.failed + res.failed,
	}
	for _, d := range perLayer {
		m.Metrics[d.Name] = metricValue{Unit: d.Unit} // a layer the workload bypasses reports 0
	}
	put := func(name string, v float64, samples int) { m.put(perLayer, name, v, samples) }
	for name, v := range lad.out {
		put(name, v, lad.n)
	}

	// The client rung: the traced cluster run's spans by op index.
	clientSet := newSpanSet("client", "", sz.ladderOps)
	for t := range res.logs {
		l := &res.logs[t]
		for j, start := range l.starts {
			clientSet.put(numClients*j+t, l.kinds[j], start, start+l.lat[j])
		}
	}
	put("client.op_ns", clientSet.medianDur(anyKind), res.ops)
	put("server.path_ns", selfTime(clientSet, lad.replicaSet, anyKind), res.ops)
	put("replica.append_ack_ns", selfTime(lad.replicaSet, lad.lsmSet, isWriteOp), lad.n)
	if op := m.Metrics["client.op_ns"].Value; op > 0 {
		attributed := lad.out["wire.encode_ns"] + lad.out["wire.decode_ns"] + lad.out["rdma.write_ns"] + lad.out["replica.op_ns"]
		put("ledger.unattributed_frac", 1-attributed/op, res.ops)
	}

	for _, k := range []struct {
		name string
		keep func(ycsb.OpKind) bool
	}{{"get", isRead}, {"put", isWriteOp}, {"scan", isScan}} {
		lat := res.latencies(k.keep)
		p50, _ := percentile(lat, 50)
		p99, _ := percentile(lat, 99)
		put("client."+k.name+"_p50_us", us(p50), len(lat))
		put("client."+k.name+"_p99_us", us(p99), len(lat))
	}
	lat := res.latencies(anyKind)
	p999, _ := percentile(lat, 99.9)
	put("client.p999_us", us(p999), len(lat))
	put("client.max_ms", float64(lat[len(lat)-1])/1e6, len(lat))
	put("client.stale_retries", float64(res.stale), res.ops)
	put("client.overload_retries", float64(res.overload), res.ops)

	ops := float64(res.ops)
	perOp := func(v uint64) float64 { return float64(v) / ops }
	put("rdma.server_net_bytes_per_op", perOp(res.totals.NetServerBytes), res.ops)
	put("storage.dev_read_bytes_per_op", perOp(res.totals.DeviceReadBytes), res.ops)
	put("storage.dev_write_bytes_per_op", perOp(res.totals.DeviceWriteBytes), res.ops)
	for comp, name := range map[metrics.Component]string{
		metrics.CompInsertL0:       "cycles.insert_l0_per_op",
		metrics.CompLogReplication: "cycles.log_replication_per_op",
		metrics.CompCompaction:     "cycles.compaction_per_op",
		metrics.CompSendIndex:      "cycles.send_index_per_op",
		metrics.CompRewriteIndex:   "cycles.rewrite_index_per_op",
		metrics.CompReply:          "cycles.reply_per_op",
		metrics.CompOther:          "cycles.other_per_op",
	} {
		put(name, perOp(res.totals.Cycles[comp]), res.ops)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	jobs := int(res.comp.Jobs)
	put("lsm.merge_ms", ms(int64(res.comp.MergeTime)), jobs)
	put("lsm.build_ms", ms(int64(res.comp.BuildTime)), jobs)
	put("replica.ship_ms", ms(int64(res.comp.ShipTime)), jobs)
	put("lsm.compaction_jobs", float64(res.comp.Jobs), jobs)
	put("lsm.writer_stalls", float64(res.comp.WriterStalls), jobs)
	put("lsm.writer_stall_ms", ms(int64(res.comp.WriterStallTime)), int(res.comp.WriterStalls))
	put("lsm.drain_s", res.drain.Seconds(), 1)
	shipped := int(res.ship.FullSegments + res.ship.DeltaSegments)
	if res.ship.RawBytes > 0 {
		put("shipcodec.cluster_wire_ratio", float64(res.ship.WireBytes)/float64(res.ship.RawBytes), shipped)
		put("shipcodec.delta_frac", float64(res.ship.DeltaSegments)/float64(shipped), shipped)
	}
	put("shipcodec.fallbacks", float64(res.ship.Fallbacks), shipped)
	put("process.cpu_us_per_op", float64(res.cpu.Microseconds())/ops, res.ops)
	put("process.gc_pause_ms", ms(int64(res.gcPause)), 1)
	put("master.failover_ms", ms(int64(res.failover)), 1)
	put("client.wall_throughput_kops", ops/res.wall.Seconds()/1e3, res.ops)
	put("process.busy_frac", res.cpu.Seconds()/res.wall.Seconds(), res.ops)
	untraced := float64(base.ops) / base.cpu.Seconds()
	put("trace.overhead_pct", 100*(untraced-ops/res.cpu.Seconds())/untraced, res.ops)

	if err := writeSpans(filepath.Join(dir, "trace-"+w.Name+".jsonl"), append([]*spanSet{clientSet}, lad.sets...)); err != nil {
		return nil, err
	}
	return m, nil
}

// maxSpansWritten caps a workload's span file (ISSUE 11).
const maxSpansWritten = 100_000

// spanRecord is one line of a span file.
type spanRecord struct {
	Name    string `json:"name"`
	Op      int    `json:"op"` // index in the generated stream: the id spans of one request share
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

func verb(k ycsb.OpKind) string {
	switch k {
	case ycsb.OpRead:
		return "get"
	case ycsb.OpScan:
		return "scan"
	}
	return "put"
}

// spanName completes a rung's name with the op's verb; micro rungs
// ("vlog.append") are already named after the call they time.
func spanName(rung string, k ycsb.OpKind) string {
	switch rung {
	case "":
		return ""
	case "client", "replica", "lsm":
		return rung + "." + verb(k)
	}
	return rung
}

// writeSpans writes every span of one op in k to path, k chosen so the
// file holds at most maxSpansWritten spans.
func writeSpans(path string, sets []*spanSet) error {
	total := 0
	for _, s := range sets {
		for _, sp := range s.spans {
			if sp.end > 0 {
				total++
			}
		}
	}
	every := total/maxSpansWritten + 1
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path closes explicitly below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range sets {
		for i := 0; i < len(s.spans); i += every {
			sp := s.spans[i]
			if sp.end == 0 {
				continue
			}
			rec := spanRecord{Name: spanName(s.name, s.kinds[i]), Op: i, StartNS: sp.start, EndNS: sp.end, Parent: spanName(s.parent, s.kinds[i])}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
