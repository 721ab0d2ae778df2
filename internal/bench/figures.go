package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/ycsb"
)

// figureSampleTicks is the minimum time-series density per measured
// run. The sampler is ticked from the op stream (not a wall-clock
// ticker), so even a smoke-scale run yields at least this many points.
const figureSampleTicks = 24

// FigurePoint is one time-series sample in a figure CSV: a value at a
// millisecond offset from the start of the measured phase.
type FigurePoint struct {
	TMS float64 `json:"t_ms"`
	V   float64 `json:"v"`
}

// FigureLatency is one op kind's tail summary (Figure 8).
type FigureLatency struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
}

// FigureRun is one measured workload phase of the figures experiment.
type FigureRun struct {
	Workload   string  `json:"workload"`
	Ops        uint64  `json:"ops"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	KOpsPerSec float64 `json:"kops_per_sec"`
	IOAmp      float64 `json:"io_amp"`
	NetAmp     float64 `json:"net_amp"`
	// NetServerBytes is the replication-network traffic (server NIC
	// tx+rx) of the measured phase.
	NetServerBytes uint64 `json:"net_server_bytes"`
	// ShipRawBytes and ShipWireBytes are the phase's index-shipping
	// totals: raw segment-image bytes versus what actually crossed the
	// wire after the ship codec (equal when the codec is off). Fig. 10.
	ShipRawBytes  uint64 `json:"ship_raw_bytes"`
	ShipWireBytes uint64 `json:"ship_wire_bytes"`
	// Samples is the time-series tick count for this run (>= 20 by
	// construction, see figureSampleTicks).
	Samples int `json:"samples"`

	// Throughput is ops/s over time (Fig. 6's x-axis unrolled).
	Throughput []FigurePoint `json:"throughput_kops"`
	// IOAmpSeries and NetAmpSeries are the amplification ratios over
	// time (Fig. 7).
	IOAmpSeries  []FigurePoint `json:"io_amp_series"`
	NetAmpSeries []FigurePoint `json:"net_amp_series"`
	// NetBytesSeries is cumulative replication-network bytes over time.
	NetBytesSeries []FigurePoint `json:"net_bytes_series"`
	// ShipRawSeries and ShipWireSeries are cumulative index-shipping
	// bytes over time (Fig. 10).
	ShipRawSeries  []FigurePoint `json:"ship_raw_series"`
	ShipWireSeries []FigurePoint `json:"ship_wire_series"`

	// Latency maps op kind to its tail summary (Fig. 8).
	Latency map[string]FigureLatency `json:"latency"`
}

// figuresCSVs are the per-figure series files, in the order written.
var figuresCSVs = []string{
	"BENCH_fig6_throughput.csv",
	"BENCH_fig7_amplification.csv",
	"BENCH_fig8_latency.csv",
	"BENCH_fig10_netamp.csv",
}

// figuresGates: every run carries the time-series density the harness
// guarantees, all five artifacts have content, and (Fig. 10) with the
// ship codec on — the default — index shipping inflates replication
// network by at most 1.1x over log replication alone.
var figuresGates = []Gate{
	{Name: "samples", Metric: "min_samples", Op: ">=", Budget: 20},
	{Name: "net-amp", Metric: "net_amp_ratio", Op: "<=", Budget: 1.1},
	artifactsGate(len(figuresCSVs)),
}

// figuresDetail is the figures report's Detail: the measured runs and
// the Fig. 10 baseline — the same Load A on an otherwise-equal cluster
// shipping raw segment images.
type figuresDetail struct {
	Runs     []FigureRun `json:"runs"`
	Baseline FigureRun   `json:"fig10_baseline"`
}

// figFamily strips a ReadSeries key down to its family name (the part
// before the label set).
func figFamily(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sumSeries adds, tick by tick, every history series whose family name
// is one of names (summing across node labels). All series ticked from
// the same sampler share offsets, so index alignment is exact.
func sumSeries(hist map[string][]obs.Point, names ...string) []obs.Point {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []obs.Point
	for key, pts := range hist {
		if !want[figFamily(key)] {
			continue
		}
		if out == nil {
			out = make([]obs.Point, len(pts))
			for i := range pts {
				out[i].T = pts[i].T
			}
		}
		n := len(out)
		if len(pts) < n {
			n = len(pts)
		}
		for i := 0; i < n; i++ {
			out[i].V += pts[i].V
		}
	}
	return out
}

// toFigurePoints converts sampler points to millisecond-offset rows.
func toFigurePoints(pts []obs.Point) []FigurePoint {
	out := make([]FigurePoint, len(pts))
	for i, p := range pts {
		out[i] = FigurePoint{TMS: float64(p.T) / float64(time.Millisecond), V: p.V}
	}
	return out
}

// rateSeries differentiates a cumulative op count into interval
// throughput (Kops/s between consecutive ticks).
func rateSeries(pts []obs.Point) []FigurePoint {
	var out []FigurePoint
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T - pts[i-1].T
		if dt <= 0 {
			continue
		}
		kops := (pts[i].V - pts[i-1].V) / dt.Seconds() / 1000
		out = append(out, FigurePoint{TMS: float64(pts[i].T) / float64(time.Millisecond), V: kops})
	}
	return out
}

// ratioSeries divides two aligned cumulative series point by point
// (amplification over time). Ticks with a zero denominator — the
// baseline sample before any user bytes moved — are dropped rather
// than plotted as a bogus 0x ratio; since the denominator is
// cumulative, the dropped ticks are always a prefix.
func ratioSeries(num, den []obs.Point) []FigurePoint {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	out := make([]FigurePoint, 0, n)
	for i := 0; i < n; i++ {
		if den[i].V <= 0 {
			continue
		}
		out = append(out, FigurePoint{
			TMS: float64(num[i].T) / float64(time.Millisecond),
			V:   num[i].V / den[i].V,
		})
	}
	return out
}

// figureLatency summarizes one histogram as the Fig. 8 percentiles.
func figureLatency(h *metrics.Histogram) FigureLatency {
	return FigureLatency{
		Count:  h.Count(),
		P50Us:  float64(h.Percentile(50).Nanoseconds()) / 1e3,
		P99Us:  float64(h.Percentile(99).Nanoseconds()) / 1e3,
		P999Us: float64(h.Percentile(99.9).Nanoseconds()) / 1e3,
	}
}

// shipOverhead is net / (net - ship wire traffic): the factor by which
// index shipping inflates replication network. Each shipped byte is
// counted twice in the summed per-node NIC totals (tx on the primary,
// rx on the backup). Returns 0 when undefined.
func shipOverhead(netBytes, shipWire float64) float64 {
	den := netBytes - 2*shipWire
	if den <= 0 {
		return 0
	}
	return netBytes / den
}

// figCluster is one instrumented cluster the figures harness measures:
// the cluster, its clients, and a registry joining the server-side
// counters with the client-side offered-load gauges.
type figCluster struct {
	p       Params
	c       *cluster.Cluster
	clients []*client.Client
	reg     *obs.Registry
	cur     atomic.Pointer[phaseStats]
}

func newFigCluster(p Params, tracer *obs.Tracer, shipUncompressed bool) (*figCluster, error) {
	fc := &figCluster{p: p}
	var err error
	fc.c, err = cluster.New(cluster.Config{
		Servers:     p.Servers,
		Regions:     p.Regions,
		Replicas:    p.Replicas,
		Mode:        p.Setup.Mode(),
		SegmentSize: p.SegmentSize,
		LSM: lsm.Options{
			NodeSize:     p.NodeSize,
			GrowthFactor: p.GrowthFactor,
			L0MaxKeys:    p.L0MaxKeys,
			MaxLevels:    7,
		},
		Trace:            tracer,
		ShipUncompressed: shipUncompressed,
	})
	if err != nil {
		return nil, err
	}
	fc.clients = make([]*client.Client, 2)
	for i := range fc.clients {
		if fc.clients[i], err = fc.c.NewClient(); err != nil {
			fc.Close()
			return nil, err
		}
	}

	// One registry covers the whole cluster; the client-side op and
	// dataset counters join it so the sampler sees offered load next to
	// the server-side traffic counters it divides by.
	fc.reg = obs.NewRegistry()
	fc.c.Observe(fc.reg)
	fc.cur.Store(&phaseStats{})
	fc.reg.Register(nil, fc)
	return fc, nil
}

// Collect implements metrics.Source with the client-side counters of
// the current measured phase.
func (fc *figCluster) Collect() []metrics.Family {
	cur := fc.cur.Load()
	return []metrics.Family{
		metrics.Gauge("tebis_bench_ops",
			"Client ops completed in the current measured phase.", metrics.Value(float64(cur.ops.Load()))),
		metrics.Gauge("tebis_bench_dataset_bytes",
			"User bytes moved by the current measured phase.", metrics.Value(float64(cur.dataset.Load()))),
	}
}

func (fc *figCluster) Close() {
	for _, cl := range fc.clients {
		if cl != nil {
			cl.Close()
		}
	}
	fc.c.Close()
}

// phase runs one workload phase against the cluster with a fresh
// sampler and returns its FigureRun.
func (fc *figCluster) phase(wl ycsb.Workload) (FigureRun, error) {
	run := FigureRun{Workload: wl.String()}

	stats := &phaseStats{}
	fc.cur.Store(stats)
	fc.c.ResetCounters()

	lat := map[ycsb.OpKind]*metrics.Histogram{
		ycsb.OpInsert: metrics.NewHistogram(),
		ycsb.OpRead:   metrics.NewHistogram(),
		ycsb.OpUpdate: metrics.NewHistogram(),
	}

	// A fresh sampler per phase, ticked from the op stream every
	// tickEvery completed ops: sample density is deterministic in the
	// op count, not the host's speed, so even smoke runs plot.
	samp := obs.NewSampler(fc.reg, obs.DefaultSampleInterval, 4*figureSampleTicks)
	total := fc.p.Records
	if wl != ycsb.LoadA {
		total = fc.p.Ops
	}
	tickEvery := total / figureSampleTicks
	if tickEvery == 0 {
		tickEvery = 1
	}
	var opCount atomic.Uint64
	onOp := func() {
		if opCount.Add(1)%tickEvery == 0 {
			samp.Tick()
		}
	}

	samp.Tick() // t=0 baseline
	if _, err := runPhase(fc.clients, fc.p, wl, stats, lat, onOp); err != nil {
		return run, err
	}
	if err := fc.c.FlushAll(); err != nil {
		return run, err
	}
	samp.Tick() // post-drain totals
	// Degenerate op counts (smoke runs smaller than the tick budget)
	// still deliver the guaranteed sample floor, as a flat tail.
	for samp.Ticks() < figureSampleTicks {
		samp.Tick()
	}

	tot := fc.c.Totals()
	run.Ops = stats.ops.Load()
	run.ElapsedMS = float64(stats.elapsed) / float64(time.Millisecond)
	if stats.elapsed > 0 {
		run.KOpsPerSec = float64(run.Ops) / stats.elapsed.Seconds() / 1000
	}
	dataset := stats.dataset.Load()
	run.IOAmp = metrics.Amplification(tot.DeviceBytes, dataset)
	run.NetAmp = metrics.Amplification(tot.NetServerBytes, dataset)
	run.NetServerBytes = tot.NetServerBytes
	for _, n := range fc.c.Nodes {
		s := n.Server.ShipStats().Snapshot()
		run.ShipRawBytes += s.RawBytes
		run.ShipWireBytes += s.WireBytes
	}
	run.Samples = int(samp.Ticks())

	hist := samp.History()
	ops := sumSeries(hist, "tebis_bench_ops")
	ds := sumSeries(hist, "tebis_bench_dataset_bytes")
	dev := sumSeries(hist, "tebis_device_read_bytes_total", "tebis_device_write_bytes_total")
	net := sumSeries(hist, "tebis_net_tx_bytes_total", "tebis_net_rx_bytes_total")
	run.Throughput = rateSeries(ops)
	run.IOAmpSeries = ratioSeries(dev, ds)
	run.NetAmpSeries = ratioSeries(net, ds)
	run.NetBytesSeries = toFigurePoints(net)
	run.ShipRawSeries = toFigurePoints(sumSeries(hist, "tebis_ship_raw_bytes_total"))
	run.ShipWireSeries = toFigurePoints(sumSeries(hist, "tebis_ship_wire_bytes_total"))

	run.Latency = map[string]FigureLatency{}
	for kind, h := range lat {
		if h.Count() > 0 {
			run.Latency[kind.String()] = figureLatency(h)
		}
	}
	return run, nil
}

// runFigures reproduces the paper's Fig. 6-8 data products as
// time-series — YCSB Load A, Run A, and Run C against a replicated
// Send-Index cluster with the registry sampler on — plus the Fig. 10
// net-amplification comparison: the same Load A repeated on a second
// cluster with the ship codec off, so the report quantifies what
// compression saves. Unlike runFig6/7/8 — which
// report one scalar per configuration — this harness samples the live
// registry throughout each phase so throughput, amplification, and
// network traffic are plotted over time, and it runs with request
// tracing at the default sample rate so the figures reflect the
// instrumented system.
func runFigures(sc Scale, w io.Writer) (*measurement, error) {
	p := params(SendIndex, ycsb.LoadA, ycsb.MixSD, sc, 1)
	p.applyDefaults()

	tracer := obs.NewTracer(0)
	fc, err := newFigCluster(p, tracer, false)
	if err != nil {
		return nil, err
	}
	defer fc.Close()

	var d figuresDetail
	for _, wl := range []ycsb.Workload{ycsb.LoadA, ycsb.RunA, ycsb.RunC} {
		run, err := fc.phase(wl)
		if err != nil {
			return nil, fmt.Errorf("bench: figures %s: %w", wl, err)
		}
		d.Runs = append(d.Runs, run)
		if wl == ycsb.LoadA {
			// Run phases start from drained, loaded data, as Run() does.
			if err := fc.c.WaitIdle(); err != nil {
				return nil, err
			}
		}
	}
	spans := len(tracer.Snapshot())

	// Fig. 10 baseline: an identical cluster shipping raw segment
	// images (the paper's prototype), driven through the same Load A.
	// It gets its own tracer so both sides carry the same
	// instrumentation and the throughput comparison is ship-codec-only.
	fb, err := newFigCluster(p, obs.NewTracer(0), true)
	if err != nil {
		return nil, err
	}
	d.Baseline, err = fb.phase(ycsb.LoadA)
	fb.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: figures baseline: %w", err)
	}
	loadA, base := d.Runs[0], d.Baseline
	m := &measurement{
		config: map[string]any{"setup": p.Setup.String(), "replicas": p.Replicas},
		detail: d,
		metrics: map[string]float64{
			"trace_spans": float64(spans),
			// net / (net - ship wire traffic) for the compressed cluster:
			// how much the index-ship traffic inflates replication network
			// over log replication alone — and the same ratio with the
			// codec off, the paper's 1.09-1.82x Send-Index overhead regime.
			"net_amp_ratio":          shipOverhead(float64(loadA.NetServerBytes), float64(loadA.ShipWireBytes)),
			"baseline_net_amp_ratio": shipOverhead(float64(base.NetServerBytes), float64(base.ShipWireBytes)),
			// Ship raw/wire bytes on the compressed cluster.
			"compression_ratio": float64(loadA.ShipRawBytes) / float64(max(loadA.ShipWireBytes, 1)),
		},
	}
	v := m.metrics
	if base.KOpsPerSec > 0 {
		// The compressed cluster's Load A throughput relative to the
		// baseline's (negative = slower).
		v["throughput_delta_percent"] = (loadA.KOpsPerSec - base.KOpsPerSec) / base.KOpsPerSec * 100
	}
	v["min_samples"] = float64(loadA.Samples)

	fmt.Fprintf(w, "Figures harness: Send-Index, two-way, SD mix (records=%d, ops=%d)\n",
		p.Records, p.Ops)
	fmt.Fprintf(w, "%-10s %10s %12s %8s %8s %8s %12s\n",
		"Run", "Ops", "Kops/s", "I/O-amp", "Net-amp", "Samples", "p99 µs")
	for _, r := range d.Runs {
		p99 := 0.0
		for _, l := range r.Latency {
			p99 = max(p99, l.P99Us)
		}
		fmt.Fprintf(w, "%-10s %10d %12.1f %8.2f %8.2f %8d %12.1f\n",
			r.Workload, r.Ops, r.KOpsPerSec, r.IOAmp, r.NetAmp, r.Samples, p99)
		key := strings.ReplaceAll(strings.ToLower(r.Workload), " ", "_")
		v[key+".kops_per_sec"], v[key+".io_amp"], v[key+".net_amp"] = r.KOpsPerSec, r.IOAmp, r.NetAmp
		v["min_samples"] = min(v["min_samples"], float64(r.Samples))
	}
	fmt.Fprintf(w, "Fig10: ship raw=%d wire=%d (%.2fx), net-amp ratio %.3f (uncompressed baseline %.3f), load throughput %+.1f%% vs baseline\n",
		loadA.ShipRawBytes, loadA.ShipWireBytes, v["compression_ratio"],
		v["net_amp_ratio"], v["baseline_net_amp_ratio"], v["throughput_delta_percent"])
	fmt.Fprintf(w, "trace spans recorded: %d\n", spans)

	m.csvs = figureCSVs(&d)
	return m, nil
}

// figureCSVs renders the per-figure CSVs, in figuresCSVs order: Fig. 6
// throughput-over-time, Fig. 7 amplification + network bytes over time,
// Fig. 8 latency percentiles, Fig. 10 ship-traffic comparison against
// the uncompressed baseline.
func figureCSVs(d *figuresDetail) [][]byte {
	runs := d.Runs

	var fig6 strings.Builder
	fig6.WriteString("run,t_ms,kops_per_sec\n")
	for _, r := range runs {
		for _, pt := range r.Throughput {
			fmt.Fprintf(&fig6, "%s,%.3f,%.3f\n", r.Workload, pt.TMS, pt.V)
		}
	}

	var fig7 strings.Builder
	fig7.WriteString("run,t_ms,io_amp,net_amp,net_bytes\n")
	for _, r := range runs {
		// The amp series drop zero-denominator prefix ticks; net_bytes
		// keeps every tick. Aligning from the tail pairs each amp row
		// with the net_bytes sample from the same tick.
		skip := len(r.NetBytesSeries) - len(r.IOAmpSeries)
		n := len(r.IOAmpSeries)
		for i := 0; i < n; i++ {
			netAmp, netBytes := 0.0, 0.0
			if i < len(r.NetAmpSeries) {
				netAmp = r.NetAmpSeries[i].V
			}
			if j := i + skip; j >= 0 && j < len(r.NetBytesSeries) {
				netBytes = r.NetBytesSeries[j].V
			}
			fmt.Fprintf(&fig7, "%s,%.3f,%.4f,%.4f,%.0f\n",
				r.Workload, r.IOAmpSeries[i].TMS, r.IOAmpSeries[i].V, netAmp, netBytes)
		}
	}

	var fig8 strings.Builder
	fig8.WriteString("run,op,count,p50_us,p99_us,p999_us\n")
	for _, r := range runs {
		ops := make([]string, 0, len(r.Latency))
		for op := range r.Latency {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			l := r.Latency[op]
			fmt.Fprintf(&fig8, "%s,%s,%d,%.1f,%.1f,%.1f\n",
				r.Workload, op, l.Count, l.P50Us, l.P99Us, l.P999Us)
		}
	}

	var fig10 strings.Builder
	fig10.WriteString("config,t_ms,raw_bytes,wire_bytes,net_bytes,ratio\n")
	emit := func(config string, r FigureRun) {
		n := len(r.ShipWireSeries)
		for i := 0; i < n; i++ {
			raw, net := 0.0, 0.0
			if i < len(r.ShipRawSeries) {
				raw = r.ShipRawSeries[i].V
			}
			if i < len(r.NetBytesSeries) {
				net = r.NetBytesSeries[i].V
			}
			wire := r.ShipWireSeries[i].V
			fmt.Fprintf(&fig10, "%s,%.3f,%.0f,%.0f,%.0f,%.4f\n",
				config, r.ShipWireSeries[i].TMS, raw, wire, net,
				shipOverhead(net, wire))
		}
	}
	emit("compressed", runs[0])
	emit("uncompressed", d.Baseline)

	return [][]byte{[]byte(fig6.String()), []byte(fig7.String()), []byte(fig8.String()), []byte(fig10.String())}
}
