package main

import "tebis/internal/ycsb"

// Cluster shape and engine options of every run (ISSUE 11): the paper's
// three-server testbed at sandbox scale. Everything else stays at the
// cluster.Config defaults.
const (
	numServers  = 3
	numRegions  = 6
	segmentSize = 256 << 10
	nodeSize    = 4096
	growth      = 4
	l0MaxKeys   = 4096
	maxLevels   = 7
	numClients  = 2 // closed loop: one goroutine per client.Client
	scanLen     = 16
	// numProcs is the GOMAXPROCS of a benchmark run. The cluster's
	// servers, spinners, compactors and the two clients hand every
	// request from goroutine to goroutine by polling; on the box's two
	// cores each hand-over waits for the other OS thread, so a neighbour
	// that takes one core for a millisecond stalls both, and the first
	// version of this benchmark spread 22-64% between identical runs on
	// the driver's shared host. On one thread a hand-over is a goroutine
	// switch and the process is busy 98-99% of the time.
	numProcs = 1

	// preloadRecords is the data set the three run workloads read: ~8x
	// one region's L0, so gets and scans walk two to three on-device
	// levels. ISSUE 11 sized 600 K; the driver's time budget (three
	// set-ups per run, 92 runs in 3420 s, with room for a slow host)
	// pays for 200 K.
	preloadRecords = 200_000
	// ladderOps is how many ops of a workload's stream the ladder and
	// the traced cluster run replay.
	ladderOps = 200_000
	// failoverReads is how many acknowledged keys load_sd reads back
	// through promoted backups after crashing a server.
	failoverReads = 10_000
	// defaultSeconds is BENCHMARK.json's run_seconds: measured op counts
	// are opsPerSecond x seconds, sized on one thread of the 2-core box;
	// about half of the counts ISSUE 11 sized for 30 s phases.
	defaultSeconds = 15
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	Why  string
	// Phase is the measured YCSB phase and Mix its KV size mix.
	Phase ycsb.Workload
	Mix   ycsb.SizeMix
	// Records is the unmeasured preload (0: the workload is the load).
	Records uint64
	// OpsPerSecond fixes the measured op count as OpsPerSecond x
	// --seconds. Counts, not durations, so amplification and cycle
	// counts compare like with like between two commits.
	OpsPerSecond int
}

var workloads = []workloadDef{
	{
		Name:         "load_sd",
		Why:          "YCSB Load A (SD mix), FlushAll, then crash + read-back: replica append/ack, segment ship, backup rewrite, shipcodec, btree build and lsm scheduler do the work; reads none.",
		Phase:        ycsb.LoadA,
		Mix:          ycsb.MixSD,
		OpsPerSecond: 50_000,
	},
	{
		Name:         "read_zipf",
		Why:          "YCSB Run C point reads (scrambled Zipfian) over 200 K preloaded SD records: btree lookup, vlog get and storage reads do the work and replica none, so a replication change must not move it.",
		Phase:        ycsb.RunC,
		Mix:          ycsb.MixSD,
		Records:      preloadRecords,
		OpsPerSecond: 70_000,
	},
	{
		Name:         "mixed_small",
		Why:          "YCSB Run A (50% read / 50% update) on 33 B pairs: the fixed per-request path (client ring, wire, rdma, server dispatch, reply) dominates engine work, and writes run beside reads on the same keys.",
		Phase:        ycsb.RunA,
		Mix:          ycsb.MixS,
		Records:      preloadRecords,
		OpsPerSecond: 90_000,
	},
	{
		Name:         "scan_short",
		Why:          "YCSB Run E (95% Scan(start,16) / 5% insert): the same levels as read_zipf through the lsm merge iterator instead of point lookups, so a change that helps one access pattern and hurts the other shows.",
		Phase:        ycsb.RunE,
		Mix:          ycsb.MixSD,
		Records:      preloadRecords,
		OpsPerSecond: 20_000,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef documents one metric. The catalogue is the single source of
// BENCHMARK.json's metric lists (TestBenchmarkJSONMatchesCatalogue) and
// of the names the README must explain.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 for per-layer metrics, which have none.
	Bound float64
	// Source is the public call timed or the counter read.
	Source string
	// Moves says which end-to-end metric, on which workload, the metric
	// should move (per-layer), or what a user sees in it (end to end).
	Moves string
}

// endToEnd lists what a user of the cluster sees, measured with tracing
// off. Every workload reports every one, and none is ever 0; per-op-type
// tails and the failure share cannot meet that (load_sd has no reads,
// the failure share is 0 by construction), so they live in perLayer and
// in the result's attempted/failed counts.
//
// The three timings are built to hold still on a shared host (numProcs,
// README.md): each is taken per 500 ms window of the measured phase, and
// the run reports the mean of its three best windows (stats.go,
// quietMean). In an hour in which the box's speed swung by half between
// identical runs, ops per second over the whole phase spread 14-20%
// between ten runs and the whole-run p99 20-32%; the best windows spread
// 6-18% and 10-22%. Bounds start from ISSUE 11's and were widened against
// sets of ten seed-commit runs per workload (README.md,
// results/seed-spread.json); the timings keep the contract's maximum.
var endToEnd = []metricDef{
	{"throughput_kops", "kops/s", "higher", 0.25, "ops completed in a 500 ms window / 0.5 s; mean of the three fastest windows", "work completed per second on one undisturbed core by two closed-loop clients"},
	{"p50_us", "us", "lower", 0.25, "time.Now around each Client.Put/Get/Scan; median per window, mean of the three lowest windows", "typical request latency, issue to reply"},
	{"p99_us", "us", "lower", 0.25, "99th percentile of the same samples per window, mean of the three lowest windows", "tail latency: compaction, ship and GC work sharing the core with the request path"},
	{"kcycles_per_op", "kcycles/op", "lower", 0.02, "Cluster.Totals().Cycles.Total() / ops (the program's cost model, a count)", "paper §4 efficiency; report changes as counts, not speed-ups"},
	{"io_amp", "B/B", "lower", 0.03, "Cluster.Totals().DeviceBytes / user bytes moved (byte counters)", "paper §4 I/O amplification"},
	{"net_amp", "B/B", "lower", 0.01, "Cluster.Totals().NetServerBytes / user bytes moved (byte counters)", "paper §4 network amplification"},
	{"space_amp", "B/B", "lower", 0.03, "sum over nodes of Device.Stats().SegmentsLive x segment size / live user bytes", "device space held per byte of live data, primaries and backups"},
	{"allocs_per_op", "allocs/op", "lower", 0.02, "runtime.MemStats.Mallocs delta over the measured phase / ops", "heap allocations per request, harness included"},
	{"mem_sys_mb", "MB", "lower", 0.15, "runtime.MemStats.Sys at the end of the measured phase", "process memory footprint (MemDevice segments included)"},
	{"setup_s", "s", "lower", 0.25, "median process CPU seconds of repeated set-ups: cluster.New + clients + preload + FlushAll + WaitIdle + warm-up", "work moved out of the measured phase into set-up shows here"},
}

// perLayer lists the single-layer metrics of a traced run. Two sources,
// both outside the program: public counters read around the traced
// cluster run, and the ladder (ladder.go).
var perLayer = []metricDef{
	// Fixed per-request path.
	{"wire.encode_ns", "ns", "lower", 0, "PutReq/GetReq/ScanReq.Encode + EncodeMessage for request and reply (ladder, 64-op batches)", "throughput_kops and p50_us on mixed_small; flat on scan_short"},
	{"wire.decode_ns", "ns", "lower", 0, "DecodeMessage + DecodePutReq/GetReq/ScanReq/GetReply/ScanReply/StatusReply (ladder, 64-op batches)", "throughput_kops and p50_us on mixed_small; flat on scan_short"},
	{"wire.msg_bytes_per_op", "B/op", "lower", 0, "len of encoded request + reply messages", "net_amp on mixed_small"},
	{"wire.pad_frac", "frac", "lower", 0, "padding bytes (MessageSize - HeaderSize - payload) / message bytes", "net_amp on mixed_small"},
	{"rdma.write_ns", "ns", "lower", 0, "QP.Write + WaitCompletion of the request and the reply message (ladder, 64-op batches)", "throughput_kops and p50_us on mixed_small"},
	{"rdma.bytes_per_op", "B/op", "lower", 0, "Endpoint.TxBytes of the ladder's two endpoints / ops", "net_amp on mixed_small"},
	{"rdma.server_net_bytes_per_op", "B/op", "lower", 0, "Cluster.Totals().NetServerBytes / ops (traced cluster run)", "net_amp on every workload"},
	{"server.path_ns", "ns", "lower", 0, "median over ops of client span - replica-rung span: ring, wire, rdma, spin, dispatch, worker, reply", "throughput_kops and p50_us on mixed_small"},
	{"client.op_ns", "ns", "lower", 0, "median Client.Put/Get/Scan span (traced cluster run)", "p50_us on every workload"},
	{"client.stale_retries", "count", "lower", 0, "Client.StaleRetries()", "p99_us; 0 unless a reconfiguration happens"},
	{"client.overload_retries", "count", "lower", 0, "Client.OverloadRetries()", "p99_us; 0 with admission control off"},
	{"client.get_p50_us", "us", "lower", 0, "Client.Get spans", "p50_us on read_zipf"},
	{"client.get_p99_us", "us", "lower", 0, "Client.Get spans", "p99_us on read_zipf and mixed_small"},
	{"client.put_p50_us", "us", "lower", 0, "Client.Put spans (inserts and updates)", "p50_us on load_sd"},
	{"client.put_p99_us", "us", "lower", 0, "Client.Put spans (inserts and updates)", "p99_us on load_sd and mixed_small"},
	{"client.scan_p50_us", "us", "lower", 0, "Client.Scan spans", "p50_us and throughput_kops on scan_short"},
	{"client.scan_p99_us", "us", "lower", 0, "Client.Scan spans", "p99_us on scan_short"},
	{"client.p999_us", "us", "lower", 0, "99.9th percentile of all spans (lowered to the highest percentile with ten samples beyond it)", "tail beyond p99; varies 20-75% between identical runs"},
	{"client.max_ms", "ms", "lower", 0, "slowest span", "worst stall; per-layer only"},
	{"client.wall_throughput_kops", "kops/s", "higher", 0, "ops / wall seconds of the traced cluster run", "the whole phase on the wall clock: below throughput_kops by the slow windows and by what the host took away"},

	// Write path.
	{"memtable.insert_ns", "ns", "lower", 0, "memtable.Table.Insert (ladder, 64-op batches, table cut every L0MaxKeys)", "throughput_kops on load_sd; flat on read_zipf"},
	{"memtable.get_ns", "ns", "lower", 0, "memtable.Table.Get on a table half an L0 full (ladder, 64-op batches)", "p50_us on read_zipf"},
	{"vlog.append_ns", "ns", "lower", 0, "vlog.Log.Append (ladder, 64-op batches)", "throughput_kops on load_sd, put tail on mixed_small"},
	{"vlog.get_ns", "ns", "lower", 0, "vlog.Log.Get (ladder, 64-op batches)", "p50_us on read_zipf"},
	{"vlog.dev_write_bytes_per_op", "B/op", "lower", 0, "MemDevice.Stats().BytesWritten under the stand-alone log / appends", "io_amp on load_sd"},
	{"lsm.put_ns", "ns", "lower", 0, "lsm.DB.Put, stand-alone engines (one per region), nil listener", "throughput_kops on load_sd, put tail on mixed_small; flat on read_zipf"},
	{"replica.put_ns", "ns", "lower", 0, "lsm.DB.Put with a replica.Primary and one Send-Index Backup attached", "p50_us on load_sd, put tail on mixed_small"},
	{"replica.op_ns", "ns", "lower", 0, "median span of every op through the Send-Index replica rung", "the engine share of client.op_ns"},
	{"replica.append_ack_ns", "ns", "lower", 0, "median over puts of replica-rung span - lsm-rung span", "p50_us on load_sd; 0 on read_zipf"},
	{"replica.net_bytes_per_op", "B/op", "lower", 0, "Tx+Rx bytes of the rung's primary and backup endpoints / ops (each byte counted at both ends, as Cluster.Totals does)", "net_amp on load_sd; Send-Index pays more than Build-Index here"},
	{"replica.backup_kcycles_per_op", "kcycles/op", "lower", 0, "the Send-Index backup's metrics.Cycles total / ops", "kcycles_per_op on load_sd: the paper's claim"},
	{"replica.backup_dev_read_bytes_per_op", "B/op", "lower", 0, "the Send-Index backup device's BytesRead / ops", "io_amp on load_sd: the paper's claim"},
	{"replica.backup_dev_write_bytes_per_op", "B/op", "lower", 0, "the Send-Index backup device's BytesWritten / ops", "io_amp on load_sd"},
	{"replica.buildindex_net_bytes_per_op", "B/op", "lower", 0, "as replica.net_bytes_per_op with a Build-Index backup", "the baseline side of the trade"},
	{"replica.buildindex_backup_kcycles_per_op", "kcycles/op", "lower", 0, "as above with a Build-Index backup", "must stay above the Send-Index figure"},
	{"replica.buildindex_backup_dev_read_bytes_per_op", "B/op", "lower", 0, "as above with a Build-Index backup", "must stay above the Send-Index figure"},
	{"replica.buildindex_backup_dev_write_bytes_per_op", "B/op", "lower", 0, "as above with a Build-Index backup", "io_amp under the baseline"},

	// Background work.
	{"btree.build_ns_per_key", "ns", "lower", 0, "btree.Builder.Add + Finish over every record of the stand-alone log", "p99_us and throughput_kops on load_sd"},
	{"btree.rewrite_ns_per_kb", "ns/KB", "lower", 0, "btree.RewriteSegment over the built tree's segment images", "kcycles_per_op and p99_us on load_sd"},
	{"btree.rewrite_ptrs_per_kb", "1/KB", "lower", 0, "pointers RewriteSegment reports / KB", "kcycles_per_op on load_sd"},
	{"shipcodec.encode_ns_per_kb", "ns/KB", "lower", 0, "shipcodec.Encode(Flate) of the same images", "p99_us and throughput_kops on load_sd"},
	{"shipcodec.decode_ns_per_kb", "ns/KB", "lower", 0, "shipcodec.Decode of the frames", "p99_us on load_sd"},
	{"shipcodec.wire_ratio", "B/B", "lower", 0, "frame bytes / image bytes (full images, no delta)", "net_amp on load_sd"},
	{"shipcodec.cluster_wire_ratio", "B/B", "lower", 0, "Server.ShipStats(): WireBytes / RawBytes over all nodes", "net_amp on load_sd"},
	{"shipcodec.delta_frac", "frac", "higher", 0, "Server.ShipStats(): DeltaSegments / all shipped segments", "net_amp on load_sd"},
	{"shipcodec.fallbacks", "count", "lower", 0, "Server.ShipStats().Fallbacks", "net_amp on load_sd"},
	{"storage.write_ns_per_kb", "ns/KB", "lower", 0, "storage.WriteFramed on a VerifyingDevice (CRC-32C frame) of the same images", "throughput_kops on load_sd"},
	{"storage.read_ns_per_kb", "ns/KB", "lower", 0, "VerifyingDevice.ReadAt, node-sized, first read after Invalidate verifies the CRC", "p50_us on read_zipf"},
	{"storage.dev_read_bytes_per_op", "B/op", "lower", 0, "Cluster.Totals().DeviceReadBytes / ops", "the read half of io_amp"},
	{"storage.dev_write_bytes_per_op", "B/op", "lower", 0, "Cluster.Totals().DeviceWriteBytes / ops", "the write half of io_amp"},
	{"lsm.merge_ms", "ms", "lower", 0, "CompactionStats.MergeTime over all nodes", "p99_us and throughput_kops on load_sd (background work shares the core with the foreground)"},
	{"lsm.build_ms", "ms", "lower", 0, "CompactionStats.BuildTime", "p99_us and throughput_kops on load_sd"},
	{"replica.ship_ms", "ms", "lower", 0, "CompactionStats.ShipTime", "p99_us on load_sd"},
	{"lsm.compaction_jobs", "count", "lower", 0, "CompactionStats.Jobs", "io_amp on load_sd"},
	{"lsm.writer_stalls", "count", "lower", 0, "CompactionStats.WriterStalls", "p99_us on load_sd and mixed_small"},
	{"lsm.writer_stall_ms", "ms", "lower", 0, "CompactionStats.WriterStallTime", "p99_us on load_sd and mixed_small"},
	{"lsm.drain_s", "s", "lower", 0, "the closing Cluster.FlushAll", "throughput_kops on load_sd"},

	// Read path.
	{"btree.get_ns", "ns", "lower", 0, "btree.Tree.Get over the stand-alone tree (ladder, 64-op batches)", "p50_us and throughput_kops on read_zipf"},
	{"btree.dev_read_bytes_per_get", "B/op", "lower", 0, "device BytesRead under Tree.Get / gets", "io_amp on read_zipf"},
	{"lsm.get_ns", "ns", "lower", 0, "lsm.DB.Get, stand-alone engines", "throughput_kops, p50_us on read_zipf; get tail on mixed_small"},
	{"lsm.dev_read_bytes_per_get", "B/op", "lower", 0, "device BytesRead around each DB.Get / gets", "io_amp on read_zipf; flat io_amp on load_sd if paid for at compaction time"},
	{"lsm.scan_ns", "ns", "lower", 0, "lsm.DB.ScanN(start,16), stand-alone engines", "throughput_kops and p50_us on scan_short"},
	{"lsm.dev_read_bytes_per_scan", "B/op", "lower", 0, "device BytesRead around each DB.ScanN / scans", "io_amp on scan_short"},

	// Splits of the end-to-end counts (traced cluster run).
	{"cycles.insert_l0_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompInsertL0] / ops", "kcycles_per_op"},
	{"cycles.log_replication_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompLogReplication] / ops", "kcycles_per_op"},
	{"cycles.compaction_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompCompaction] / ops", "kcycles_per_op"},
	{"cycles.send_index_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompSendIndex] / ops", "kcycles_per_op"},
	{"cycles.rewrite_index_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompRewriteIndex] / ops", "kcycles_per_op"},
	{"cycles.reply_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompReply] / ops", "kcycles_per_op"},
	{"cycles.other_per_op", "cycles/op", "lower", 0, "Totals().Cycles[CompOther] / ops", "kcycles_per_op"},

	// Process, control plane, ledger.
	{"process.cpu_us_per_op", "us/op", "lower", 0, "getrusage user+system delta / ops over the whole traced phase, writer stalls and the closing FlushAll included", "what throughput_kops leaves out: the slow windows"},
	{"process.busy_frac", "frac", "higher", 0, "getrusage user+system delta / wall seconds of the traced cluster run", "0.99 on an idle host; lower means the host took CPU away, or the program now waits where it used to work and the CPU clock no longer stands for the wall clock"},
	{"process.gc_pause_ms", "ms", "lower", 0, "runtime.MemStats.PauseTotalNs delta", "p99_us"},
	{"master.failover_ms", "ms", "lower", 0, "Cluster.Crash of the server holding most primaries (load_sd; 0 elsewhere)", "availability after a crash"},
	{"ledger.unattributed_frac", "frac", "lower", 0, "1 - (wire.encode_ns + wire.decode_ns + rdma.write_ns + replica.op_ns) / client.op_ns", "ROADMAP item 1 wants this under 0.15; reported, not gated"},
	{"trace.overhead_pct", "%", "lower", 0, "throughput (ops / CPU s) of the untraced minus the traced cluster run, both at ladderOps, / untraced", "cost of span recording"},
}
