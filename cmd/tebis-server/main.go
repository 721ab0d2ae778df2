// Command tebis-server runs a small Tebis deployment — one region server
// on a file-backed device, two with -replica (a Send-Index backup on an
// in-memory device) — behind a line-oriented TCP front end. The binary
// only parses flags, builds the deployment with cluster.New, and
// translates text commands into client calls: dispatch, admission
// control, stage attribution, the GC loop and every metric family are
// internal/server's, the same code the benchmarks and tests drive.
//
// Every sealed segment carries a CRC32C frame trailer; cmd/tebis-fsck
// verifies (or, with -recover, repairs) the -data image offline. With
// -admission (default on) the server sheds mutations under overload and
// the front end answers "ERR overloaded ..."; reads are never refused.
// -metrics serves obs.Serve's HTTP surface (/metrics, /metrics/history,
// /debug/{vars,trace,events,pprof/,profiler}, /healthz, /readyz). The
// line protocol is documented at the usage table below.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"tebis/internal/admission"
	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/obs"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/storage"
)

// primaryNode is the server hosting the one region's primary (the first
// name region.Partition assigns); it owns the -data file image.
var primaryNode = cluster.ServerNames(1)[0]

var (
	addr        = flag.String("addr", ":7625", "listen address")
	data        = flag.String("data", "/tmp/tebis.img", "device file path")
	segSize     = flag.Int64("segment", 2<<20, "segment size in bytes (power of two)")
	l0          = flag.Int("l0", lsm.DefaultL0MaxKeys, "L0 capacity in keys")
	metricsAddr = flag.String("metrics", "", "observability HTTP listen address (empty = off)")
	profileDir  = flag.String("profile-dir", "", "watchdog profile output directory (empty = OS temp)")
	withReplica = flag.Bool("replica", false, "add a second server hosting a Send-Index backup")
	shipRaw     = flag.Bool("ship-uncompressed", false, "ship raw index segments (disable the wire codec)")
	workers     = flag.Int("workers", server.DefaultWorkers, "worker threads per server")
	taskThresh  = flag.Int("task-threshold", server.DefaultTaskThreshold, "worker wake-up threshold: tasks queued on a worker before dispatch spills to the next")
	admissionOn = flag.Bool("admission", true, "signal-driven admission control: adapt the wake-up threshold to queue wait and shed mutations under overload (false = fixed knob)")
	traceSample = flag.Float64("trace-sample", client.DefaultTraceSampleRate, "fraction of commands sampled into stage telemetry and /debug/trace (negative = off)")
	gcOn        = flag.Bool("gc", false, "online value-log garbage collection: relocate live records out of mostly-dead segments and free them")
	gcRatio     = flag.Float64("gc-dead-ratio", 0, "dead-byte fraction past which a sealed segment becomes a GC victim (0 = engine default 0.5)")
	gcMaxSegs   = flag.Int("gc-max-segments", 0, "victim segments per GC pass (0 = engine default 4)")
	gcInterval  = flag.Duration("gc-interval", server.DefaultGCInterval, "pause between background GC passes")
	logLevel    = flag.String("log-level", obs.LevelInfo, "minimum log level (debug, info, warn, error)")
)

// deployment translates the flags into the cluster to build. The engine
// template carries no stats sink: a sink set there is one cluster-wide
// sink, and every server defaults one of its own.
func deployment(ev *obs.EventLog) cluster.Config {
	cfg := cluster.Config{
		Servers:          1,
		Regions:          1,
		SegmentSize:      *segSize,
		LSM:              lsm.Options{L0MaxKeys: *l0},
		Workers:          *workers,
		TaskThreshold:    *taskThresh,
		TraceSampleRate:  *traceSample,
		ShipUncompressed: *shipRaw,
		GC: server.GCConfig{Enabled: *gcOn, MinDeadRatio: *gcRatio,
			MaxSegments: *gcMaxSegs, Interval: *gcInterval},
		Events: ev,
		Device: func(name string) (storage.Device, error) {
			if name == primaryNode {
				return storage.NewFileDevice(*data, *segSize, 0)
			}
			return storage.NewMemDevice(*segSize, 0)
		},
	}
	if *admissionOn {
		cfg.Admission = &admission.Config{}
	}
	if *withReplica {
		cfg.Servers, cfg.Replicas, cfg.Mode = 2, 1, replica.SendIndex
	}
	if *metricsAddr != "" {
		cfg.Trace = obs.NewTracer(0)
	}
	return cfg
}

func main() {
	flag.Parse()

	// One key=value stream: log calls and, via the sink, journal events.
	logger := obs.NewLogger(os.Stderr, *logLevel)
	fatal := func(msg string, kv ...any) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}
	ev := obs.NewEventLog(0)
	ev.SetSink(logger)

	cfg := deployment(ev)
	c, err := cluster.New(cfg)
	if err != nil {
		fatal("open deployment failed", "device", *data, "err", err)
	}

	if *metricsAddr != "" {
		got, err := serveMetrics(*metricsAddr, *profileDir, c, cfg.Trace)
		if err != nil {
			fatal("metrics endpoint failed", "addr", *metricsAddr, "err", err)
		}
		logger.Info("metrics endpoint up", "url", "http://"+got+"/metrics")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "device", *data,
		"segment_bytes", *segSize, "replica", *withReplica)
	ev.Record(obs.Event{Type: obs.EvServerStarted, Node: primaryNode,
		Msg:    "line-protocol front end accepting connections",
		Fields: map[string]string{"addr": ln.Addr().String(), "replica": fmt.Sprint(*withReplica)}})

	for {
		conn, err := ln.Accept()
		if err != nil {
			logger.Warn("accept failed", "err", err)
			continue
		}
		go serve(conn, c)
	}
}

// serveMetrics serves the deployment's observability surface over HTTP
// and starts the watchdog that captures heap+CPU profiles when writer
// stalls spike (§5.1's backpressure) or the history sampler stops.
func serveMetrics(addr, profileDir string, c *cluster.Cluster, tracer *obs.Tracer) (string, error) {
	reg := obs.NewRegistry()
	c.Observe(reg)
	health := obs.NewHealth()
	for _, n := range c.Nodes {
		n.Server.RegisterHealth(health)
	}
	prof, err := obs.NewProfiler(profileDir)
	if err != nil {
		return "", err
	}
	samp := obs.NewSampler(reg, 0, 0)
	samp.Start()
	cstats := c.Nodes[primaryNode].Server.CompactionStats()
	prof.Watch(time.Second,
		obs.StallCondition("writer-stall", 250*time.Millisecond,
			func() time.Duration { return cstats.Snapshot().WriterStallTime }),
		obs.ScrapeStallCondition(samp, 5*obs.DefaultSampleInterval))
	return obs.Serve(addr, reg, tracer, prof, samp, c.Events(), health)
}

// serve speaks the line protocol on one connection through its own client.
func serve(conn net.Conn, c *cluster.Cluster) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	defer w.Flush()
	cl, err := c.NewClient()
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	defer cl.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := splitFields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "QUIT") {
			return
		}
		execute(w, c, cl, fields)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// usage lists the commands: one request per line, space-separated,
// keys and values optionally escaped as Go %q strings. PUT and DEL
// answer OK, GET answers VALUE <value> or NOTFOUND, SCAN answers up to
// n "KV <key> <value>" lines then END, STATS answers STATS <json>, QUIT
// closes the connection, and any failure answers ERR <reason>.
var usage = map[string]string{
	"PUT": "PUT <key> <value>", "GET": "GET <key>", "DEL": "DEL <key>",
	"SCAN": "SCAN <start> <n>", "STATS": "STATS",
}

// execute runs one command and writes its reply lines.
func execute(w io.Writer, c *cluster.Cluster, cl *client.Client, fields []string) {
	cmd := strings.ToUpper(fields[0])
	want, known := usage[cmd]
	if !known {
		fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		return
	}
	if len(fields) != len(strings.Fields(want)) {
		fmt.Fprintf(w, "ERR usage: %s\n", want)
		return
	}
	args := make([][]byte, len(fields)-1)
	for i, f := range fields[1:] {
		var err error
		if args[i], err = unq(f); err != nil {
			fmt.Fprintln(w, "ERR bad escaping")
			return
		}
	}
	switch cmd {
	case "PUT":
		writeStatus(w, cl.Put(args[0], args[1]))
	case "DEL":
		writeStatus(w, cl.Delete(args[0]))
	case "GET":
		switch v, found, err := cl.Get(args[0]); {
		case err != nil:
			writeStatus(w, err)
		case !found:
			fmt.Fprintln(w, "NOTFOUND")
		default:
			fmt.Fprintf(w, "VALUE %q\n", v)
		}
	case "SCAN":
		n, err := strconv.Atoi(string(args[1]))
		if err != nil || n < 1 {
			fmt.Fprintln(w, "ERR bad count")
			return
		}
		// One client scan stops at its reply-slot budget; continue
		// from the last key until n pairs or the end of the data.
		for start := args[0]; n > 0; {
			pairs, err := cl.Scan(start, n)
			if err != nil {
				writeStatus(w, err)
				return
			}
			if len(pairs) == 0 {
				break
			}
			for _, p := range pairs {
				fmt.Fprintf(w, "KV %q %q\n", p.Key, p.Value)
			}
			n -= len(pairs)
			start = append(pairs[len(pairs)-1].Key, 0)
		}
		fmt.Fprintln(w, "END")
	case "STATS":
		n := c.Nodes[primaryNode]
		dev := n.Device.Stats()
		fmt.Fprintf(w, `STATS {"bytes_read":%d,"bytes_written":%d,"segments_live":%d,"cycles_total":%d}`+"\n",
			dev.BytesRead, dev.BytesWritten, dev.SegmentsLive, n.Cycles.Snapshot().Total())
	}
}

// writeStatus answers OK, the overload refusal (nothing was applied;
// the client already backed off and retried), or the error.
func writeStatus(w io.Writer, err error) {
	switch {
	case err == nil:
		fmt.Fprintln(w, "OK")
	case errors.Is(err, client.ErrOverloaded):
		fmt.Fprintln(w, "ERR overloaded: shed by admission control, back off and retry")
	default:
		fmt.Fprintf(w, "ERR %v\n", err)
	}
}

// splitFields tokenizes a command line, keeping %q-quoted strings
// (which may contain spaces) as single tokens.
func splitFields(line string) []string {
	var out []string
	for line = strings.TrimLeft(line, " \t"); line != ""; line = strings.TrimLeft(line, " \t") {
		tok, err := strconv.QuotedPrefix(line)
		if err != nil || line[0] != '"' {
			// A bare token — or an unterminated quote, which unq rejects.
			if tok = line; strings.ContainsAny(line, " \t") {
				tok = line[:strings.IndexAny(line, " \t")]
			}
		}
		out = append(out, tok)
		line = line[len(tok):]
	}
	return out
}

// unq decodes a %q-escaped token.
func unq(s string) ([]byte, error) {
	if !strings.HasPrefix(s, "\"") {
		return []byte(s), nil
	}
	out, err := strconv.Unquote(s)
	return []byte(out), err
}
