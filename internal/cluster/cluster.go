// Package cluster wires a complete in-process Tebis deployment: a
// coordination service, a master (with standby candidates), N region
// servers with their devices and NICs, and client factories. It is the
// substrate every integration test, example, and benchmark runs on —
// the stand-in for the paper's three-server RDMA testbed (DESIGN.md
// "Packages and substitutions").
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"tebis/internal/admission"
	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/master"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/zklite"
)

// Config sizes a cluster.
type Config struct {
	// Servers is the region-server count (the paper uses 3).
	Servers int
	// Regions is the region count (the paper uses 32).
	Regions int
	// Replicas is the number of backups per region (0, 1, or 2).
	Replicas int
	// Mode is the replication scheme.
	Mode replica.Mode
	// SegmentSize is the device/log/index segment size.
	SegmentSize int64
	// Device opens the named server's storage device; nil gives every
	// server an in-memory device of SegmentSize segments. A deployment
	// setting: tebis-server puts its primary on a file image with it.
	Device func(server string) (storage.Device, error)
	// LSM is the per-region engine template, copied to every server. A
	// non-nil CompactionStats is therefore one cluster-wide sink — every
	// server records into it and exposes its totals under its own node
	// label; leave it nil and each server counts its own compactions.
	LSM lsm.Options
	// Workers and SpinThreads size each server (paper: 8 and 2). A zero
	// SpinThreads gives each server 2, or GOMAXPROCS if that is fewer
	// (server.DefaultSpinThreads).
	Workers     int
	SpinThreads int
	// TaskThreshold is each server's per-worker wake-up threshold
	// (server.DefaultTaskThreshold if zero).
	TaskThreshold int
	// Admission enables signal-driven admission control on every server
	// (DESIGN.md "Data path"); nil keeps the fixed-knob dispatch threshold.
	Admission *admission.Config
	// Stages aggregates per-stage, per-tenant latency of sampled
	// requests across every server and client built here into one set
	// (created on demand) — the data the tail-attribution figures and
	// tebis_op_stage_* families read.
	Stages *metrics.StageSet
	// Cost is the cycle cost model (default if zero).
	Cost metrics.CostModel
	// MasterCandidates is the number of master candidates (≥1).
	MasterCandidates int
	// Retry bounds primaries' patience with unresponsive backups (zero
	// selects replica.DefaultRetryPolicy). Failure tests shorten it.
	Retry replica.RetryPolicy
	// Trace records compaction pipeline spans across all nodes into one
	// shared ring, each stamped with its server's name; may be nil.
	// Clients built via NewClient share it for request-scoped tracing.
	Trace *obs.Tracer
	// TraceSampleRate is passed to clients built via NewClient: the
	// per-operation head-based sampling probability (0 selects
	// client.DefaultTraceSampleRate, negative disables).
	TraceSampleRate float64
	// ShipUncompressed disables the Send-Index ship codec, shipping raw
	// segment images as the paper's Tebis prototype does. The zero value
	// turns compression ON — the wire frames decode
	// back to identical bytes before the offset rewrite, so byte
	// convergence is unaffected (DESIGN.md "Replication"). Benchmarks set
	// this to measure the uncompressed baseline.
	ShipUncompressed bool
	// GC configures online value-log garbage collection on every
	// server's hosted primaries (DESIGN.md "Value-log GC"); the zero value
	// keeps GC off. Each server gets its own stats sink.
	GC server.GCConfig
	// Events is the cluster-wide structured event journal shared by
	// every server and master candidate (created on demand): one ring
	// ordering control-plane transitions across the whole deployment.
	Events *obs.EventLog
	// DisableLag turns the per-backup lag trackers off on every server
	// (bench-only ablation; see server.Config.DisableLag).
	DisableLag bool
}

func (c *Config) applyDefaults() {
	if c.Servers == 0 {
		c.Servers = 3
	}
	if c.Regions == 0 {
		c.Regions = 8
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = 64 << 10
	}
	if c.MasterCandidates == 0 {
		c.MasterCandidates = 1
	}
	if c.Device == nil {
		segSize := c.SegmentSize
		c.Device = func(string) (storage.Device, error) { return storage.NewMemDevice(segSize, 0) }
	}
	if c.Cost == (metrics.CostModel{}) {
		c.Cost = metrics.DefaultCostModel()
	}
	if c.Stages == nil {
		c.Stages = metrics.NewStageSet()
	}
	if c.Events == nil {
		c.Events = obs.NewEventLog(0)
	}
}

// Node bundles one region server with its device and liveness session.
type Node struct {
	Server *server.Server
	Device storage.Device
	Cycles *metrics.Cycles
	// Failures collects the node's replication-failure metrics (retries,
	// evictions, degraded time, resync bytes).
	Failures *metrics.FailureStats
	sess     *zklite.Session
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config

	ZK      *zklite.Store
	Nodes   map[string]*Node
	Masters []*master.Master

	masterSessions []*zklite.Session
	leader         *master.Master
	rmap           *region.Map
	clientSeq      atomic.Int64
	runErr         chan error
}

// ServerNames returns the configured server names s0..sN-1.
func ServerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return names
}

// New builds and bootstraps a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	c := &Cluster{
		cfg:    cfg,
		ZK:     zklite.NewStore(),
		Nodes:  map[string]*Node{},
		runErr: make(chan error, cfg.MasterCandidates),
	}

	// Coordination bootstrap paths.
	boot := c.ZK.NewSession()
	if err := boot.CreateAll(master.ServersPath); err != nil {
		return nil, err
	}

	// Region servers, each with a device, NIC, cycle account, and an
	// ephemeral liveness node.
	names := ServerNames(cfg.Servers)
	shipCodec := shipcodec.Flate
	if cfg.ShipUncompressed {
		shipCodec = shipcodec.None
	}
	for _, name := range names {
		dev, err := cfg.Device(name)
		if err != nil {
			return nil, err
		}
		cycles := &metrics.Cycles{}
		failures := &metrics.FailureStats{}
		srv, err := server.New(server.Config{
			Name:          name,
			Device:        dev,
			Endpoint:      rdma.NewEndpoint(name),
			Cycles:        cycles,
			Cost:          cfg.Cost,
			LSM:           cfg.LSM,
			Workers:       cfg.Workers,
			SpinThreads:   cfg.SpinThreads,
			TaskThreshold: cfg.TaskThreshold,
			Retry:         cfg.Retry,
			Failures:      failures,
			Trace:         cfg.Trace,
			Stages:        cfg.Stages,
			Admission:     cfg.Admission,
			ShipCodec:     shipCodec,
			GC:            cfg.GC,
			Events:        cfg.Events,
			DisableLag:    cfg.DisableLag,
		})
		if err != nil {
			return nil, err
		}
		sess := c.ZK.NewSession()
		if _, err := sess.Create(master.ServersPath+"/"+name, nil, zklite.FlagEphemeral); err != nil {
			return nil, err
		}
		c.Nodes[name] = &Node{Server: srv, Device: dev, Cycles: cycles, Failures: failures, sess: sess}
	}

	// Master candidates; the first enrolled wins the election.
	for i := 0; i < cfg.MasterCandidates; i++ {
		sess := c.ZK.NewSession()
		m, err := master.New(master.Config{
			Name:    fmt.Sprintf("master%d", i),
			Session: sess,
			Mode:    cfg.Mode,
			Events:  cfg.Events,
		})
		if err != nil {
			return nil, err
		}
		for _, n := range c.Nodes {
			m.RegisterHost(n.Server)
		}
		c.Masters = append(c.Masters, m)
		c.masterSessions = append(c.masterSessions, sess)
	}
	c.leader = c.Masters[0]

	rmap, err := region.Partition(cfg.Regions, names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if err := c.leader.Bootstrap(rmap); err != nil {
		return nil, err
	}
	c.rmap = rmap

	go func() { c.runErr <- c.leader.Run() }()
	return c, nil
}

// Leader returns the acting master.
func (c *Cluster) Leader() *master.Master { return c.leader }

// Map reads the published region map from the coordination service —
// what clients do at initialization and on wrong-region replies (§3.1).
func (c *Cluster) Map() (*region.Map, error) {
	sess := c.ZK.NewSession()
	defer sess.Close()
	data, err := sess.Get(master.RegionMapPath)
	if err != nil {
		return nil, err
	}
	return region.Decode(data)
}

// NewClient connects a client to every live server (tenant 0 at the
// lowest admission priority).
func (c *Cluster) NewClient() (*client.Client, error) {
	return c.NewTenantClient(0, 0)
}

// NewTenantClient is NewClient with an explicit tenant ID and admission
// priority stamped on every request the client issues — the handle a
// multi-tenant workload drives one tenant's traffic through.
func (c *Cluster) NewTenantClient(tenant, priority uint8) (*client.Client, error) {
	rmap, err := c.Map()
	if err != nil {
		return nil, err
	}
	servers := map[string]client.ServerHandle{}
	for name, n := range c.Nodes {
		if !c.alive(name) {
			continue // crashed servers are not dialable
		}
		servers[name] = n.Server
	}
	return client.New(client.Config{
		Name:            fmt.Sprintf("client%d", c.clientSeq.Add(1)),
		Servers:         servers,
		Map:             rmap,
		Refresh:         c.Map,
		Trace:           c.cfg.Trace,
		TraceSampleRate: c.cfg.TraceSampleRate,
		Tenant:          tenant,
		Priority:        priority,
		Stages:          c.cfg.Stages,
	})
}

// Stages returns the cluster-wide stage-latency aggregator shared by
// every server and client built here.
func (c *Cluster) Stages() *metrics.StageSet { return c.cfg.Stages }

// Events returns the cluster-wide structured event journal shared by
// every server and master candidate.
func (c *Cluster) Events() *obs.EventLog { return c.cfg.Events }

// Crash kills a server: its threads stop, its replication connections
// drop, and its liveness node disappears, triggering the master's
// recovery. Crash blocks until the master has reconfigured every
// affected region (no region references the dead server afterwards).
func (c *Cluster) Crash(name string) error {
	n, ok := c.Nodes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown server %s", name)
	}
	n.Server.Crash()
	n.sess.Close() // ephemeral node vanishes; master reacts

	deadline := time.Now().Add(30 * time.Second)
	for {
		rmap, err := c.Map()
		if err != nil {
			return err
		}
		if !mapReferences(rmap, name) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: recovery from %s crash timed out", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mapReferences(rmap *region.Map, name string) bool {
	for _, r := range rmap.Regions {
		if r.Primary == name {
			return true
		}
		for _, b := range r.Backups {
			if b == name {
				return true
			}
		}
	}
	return false
}

// FailMaster kills the acting master. A standby candidate wins the
// election, loads the published region map and resumes the watch —
// during the gap, existing primaries keep serving (§3.5).
func (c *Cluster) FailMaster() error {
	if len(c.Masters) < 2 {
		return fmt.Errorf("cluster: no standby master")
	}
	c.leader.Stop()
	// Kill the leader's session: its election node disappears.
	for i, m := range c.Masters {
		if m == c.leader {
			c.masterSessions[i].Close()
		}
	}
	// Find the new leader among the survivors.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range c.Masters {
			if m == c.leader {
				continue
			}
			lead, _, err := m.IsLeader()
			if err != nil {
				continue
			}
			if lead {
				if err := m.TakeOver(); err != nil {
					return err
				}
				c.leader = m
				go func() { c.runErr <- m.Run() }()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: master election did not converge")
		}
		time.Sleep(time.Millisecond)
	}
}

// RunErr reports an asynchronous master loop error, if one happened.
func (c *Cluster) RunErr() error {
	select {
	case err := <-c.runErr:
		return err
	default:
		return nil
	}
}

// FlushAll drains every live server's engines (benchmarks call this
// before reading amplification counters).
func (c *Cluster) FlushAll() error {
	for name, n := range c.Nodes {
		if !c.alive(name) {
			continue
		}
		if err := n.Server.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WaitIdle waits for all compactions on live servers.
func (c *Cluster) WaitIdle() error {
	for name, n := range c.Nodes {
		if !c.alive(name) {
			continue
		}
		if err := n.Server.WaitIdle(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) alive(name string) bool {
	sess := c.ZK.NewSession()
	defer sess.Close()
	ok, _, err := sess.Exists(master.ServersPath+"/"+name, false)
	return err == nil && ok
}

// Totals aggregates cluster-wide measurements.
type Totals struct {
	// DeviceBytes is read+written bytes over all server devices.
	DeviceBytes uint64
	// DeviceReadBytes and DeviceWriteBytes split the device traffic.
	DeviceReadBytes  uint64
	DeviceWriteBytes uint64
	// NetServerBytes is bytes sent+received by server NICs only
	// (server-to-server and server-to-client, the paper's
	// network_traffic).
	NetServerBytes uint64
	// Cycles is the summed per-component breakdown over all servers.
	Cycles metrics.Breakdown
}

// Totals snapshots all counters.
func (c *Cluster) Totals() Totals {
	var t Totals
	for _, n := range c.Nodes {
		st := n.Device.Stats()
		t.DeviceReadBytes += st.BytesRead
		t.DeviceWriteBytes += st.BytesWritten
		ep := n.Server.Endpoint()
		t.NetServerBytes += ep.TxBytes() + ep.RxBytes()
		t.Cycles.Add(n.Cycles.Snapshot())
	}
	t.DeviceBytes = t.DeviceReadBytes + t.DeviceWriteBytes
	return t
}

// Observe registers every node's metric families with reg (each
// labeled by server name), one call per deployment: a single /metrics
// scrape then covers the whole cluster.
func (c *Cluster) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, n := range c.Nodes {
		n.Server.Observe(reg)
	}
}

// ResetCounters zeroes all device, network, and cycle counters (between
// the load and run phases of a benchmark) and empties the index node
// caches, so the phase that follows is charged the device reads that
// fill the cache it runs on instead of inheriting them from a warm-up.
func (c *Cluster) ResetCounters() {
	for _, n := range c.Nodes {
		storage.NodeCacheOf(n.Server.Device()).Reset()
		n.Device.ResetStats()
		n.Server.Endpoint().ResetCounters()
		n.Cycles.Reset()
		n.Server.ShipStats().Reset()
	}
}

// Close shuts the whole cluster down.
func (c *Cluster) Close() error {
	c.leader.Stop()
	var firstErr error
	for name, n := range c.Nodes {
		if !c.alive(name) {
			continue
		}
		if err := n.Server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, n := range c.Nodes {
		n.Device.Close()
	}
	return firstErr
}
