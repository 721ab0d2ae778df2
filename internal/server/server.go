// Package server implements the Tebis region server: it hosts regions
// with primary or backup roles, detects client messages with spinning
// threads polling RDMA buffer rendezvous points, and processes requests
// on a worker pool with private task queues (§3.4).
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tebis/internal/admission"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// Defaults matching the paper's configuration (§4).
const (
	// DefaultWorkers is the worker-thread count per server.
	DefaultWorkers = 8
	// DefaultSpinThreads is the number of spinning threads per server, cut
	// to the runtime's P count (GOMAXPROCS) when that is smaller: spinners
	// beyond it cannot poll at the same time, they only time-slice the Ps
	// and add a yield per sweep to the op path.
	DefaultSpinThreads = 2
	// DefaultTaskThreshold is the queue depth beyond which the spinning
	// thread moves to the next worker (§3.4.2).
	DefaultTaskThreshold = 64
	// DefaultBufferSize is the client request/reply buffer size.
	DefaultBufferSize = 256 << 10
)

// Config configures a region server.
type Config struct {
	// Name is the server's cluster-unique name.
	Name string
	// Device is the node's storage device.
	Device storage.Device
	// Endpoint is the node's NIC.
	Endpoint *rdma.Endpoint
	// Cycles is the node's cycle account.
	Cycles *metrics.Cycles
	// Cost is the cycle cost model.
	Cost metrics.CostModel
	// LSM is the per-region engine template (Device/Cycles are filled
	// in per region).
	LSM lsm.Options
	// Workers is the worker pool size (DefaultWorkers if zero).
	Workers int
	// SpinThreads is the number of spinning threads (if zero,
	// DefaultSpinThreads or GOMAXPROCS when the server is built, whichever
	// is smaller).
	SpinThreads int
	// TaskThreshold is the per-worker queue threshold
	// (DefaultTaskThreshold if zero). Each worker's queue holds
	// 4*TaskThreshold tasks, so the spinning threads can overshoot the
	// threshold while tasks drain.
	TaskThreshold int
	// BufferSize is the per-client RDMA buffer size (DefaultBufferSize
	// if zero).
	BufferSize int
	// ShipCodec compresses shipped index segments on the wire
	// (DESIGN.md "Replication"); zero ships raw bytes.
	ShipCodec shipcodec.Codec
	// Ship collects raw-vs-wire ship traffic metrics (created on demand
	// when nil).
	Ship *metrics.ShipStats
	// Retry bounds hosted primaries' patience with unresponsive backups
	// (zero selects replica.DefaultRetryPolicy).
	Retry replica.RetryPolicy
	// Failures collects this node's failure metrics (created on demand
	// when nil).
	Failures *metrics.FailureStats
	// Trace records compaction pipeline spans for every hosted region,
	// stamped with this server's name; may be nil.
	Trace *obs.Tracer
	// Stages aggregates per-stage, per-tenant latency of sampled
	// requests (created on demand when nil); Observe exposes it as the
	// tebis_op_stage_* families (DESIGN.md "Observability").
	Stages *metrics.StageSet
	// Lag tracks per-backup replication lag, staleness, and ack round
	// trips on hosted primaries (created on demand when nil); Observe
	// exposes it as the tebis_replica_* families (DESIGN.md "Observability").
	Lag *metrics.LagSet
	// DisableLag leaves the lag tracker off entirely (every record site
	// tolerates a nil LagSet). Bench-only ablation knob: the lag
	// experiment uses it to price the tracker's hot-path tax.
	DisableLag bool
	// Events journals every control-plane transition this node makes —
	// evictions, syncs, promotions, GC passes (created on
	// demand when nil). May be shared cluster-wide so one journal holds
	// the whole cluster's transition history.
	Events *obs.EventLog
	// Admission enables signal-driven admission control over the worker
	// pool (DESIGN.md "Data path"): the controller watches the sampled
	// worker-queue wait, adapts the wake-up threshold below
	// TaskThreshold, and under sustained overload delays then sheds
	// priority-0 load. Nil keeps the fixed-knob behavior unchanged; a
	// zero MaxThreshold inherits TaskThreshold.
	Admission *admission.Config
	// GC configures online value-log garbage collection on hosted
	// primaries (DESIGN.md "Value-log GC"); the zero value keeps GC off but
	// still exposes the space ledger on /metrics.
	GC GCConfig
}

func (c *Config) applyDefaults() {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.SpinThreads == 0 {
		c.SpinThreads = min(DefaultSpinThreads, runtime.GOMAXPROCS(0))
	}
	if c.TaskThreshold == 0 {
		c.TaskThreshold = DefaultTaskThreshold
	}
	if c.BufferSize == 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.Cost == (metrics.CostModel{}) {
		c.Cost = metrics.DefaultCostModel()
	}
	if c.Failures == nil {
		c.Failures = &metrics.FailureStats{}
	}
	if c.Ship == nil {
		c.Ship = &metrics.ShipStats{}
	}
	if c.Stages == nil {
		c.Stages = metrics.NewStageSet()
	}
	if c.Lag == nil && !c.DisableLag {
		c.Lag = metrics.NewLagSet()
	}
	if c.Events == nil {
		c.Events = obs.NewEventLog(0)
	}
	if c.GC.Stats == nil {
		c.GC.Stats = &metrics.GCStats{}
	}
	if c.LSM.NodeSize == 0 {
		// Backups rewrite shipped segments by this size and the ship
		// codec pages by it, outside the engine's own defaulting.
		c.LSM.NodeSize = lsm.DefaultNodeSize
	}
	if c.LSM.CompactionStats == nil {
		// Share one sink across all hosted regions so Observe exposes a
		// per-node compaction family.
		c.LSM.CompactionStats = &metrics.CompactionStats{}
	}
}

// hostedRegion is one region resident on this server.
type hostedRegion struct {
	info    region.Region
	mode    replica.Mode
	primary *replica.Primary // non-nil when this server is the primary
	db      *lsm.DB          // the engine (primary role only)
	backup  *replica.Backup  // non-nil when this server is a backup
}

// Server is a Tebis region server.
type Server struct {
	cfg   Config
	dev   *storage.VerifyingDevice // cfg.Device, which New wraps
	trace *obs.Tracer              // node-stamped view of cfg.Trace
	// ctrl closes the queue-wait feedback loop when cfg.Admission is
	// set; nil means fixed-knob dispatch (nil-safe everywhere).
	ctrl *admission.Controller

	// Per-op service latency (Figure 8), by request opcode (nil for one
	// not tracked), and the user bytes ingested — the denominator of the
	// amplification gauges.
	opLat   [256]*metrics.Histogram
	dataset atomic.Uint64

	mu      sync.Mutex
	regions map[region.ID]*hostedRegion
	conns   []*clientConn // every connection accepted, open or not
	closed  bool
	// openConns is the immutable snapshot of open connections the
	// spinning threads walk, republished whenever one opens or closes.
	openConns atomic.Pointer[[]*clientConn]
	// bodies recycles task bodies (*[]byte) between detect and the
	// reply.
	bodies sync.Pool

	wg      sync.WaitGroup
	workers []*worker
	stop    chan struct{}
	// spinStats has one entry per spinning thread, indexed like spin's idx.
	spinStats []spinStat
}

// spinStat is one spinning thread's count of the sweeps that found
// nothing — each ends in a yield or a sleep — on a cache line of its
// own, so two threads never write one line.
type spinStat struct {
	emptySweeps atomic.Uint64
	_           [56]byte
}

// emptySweeps sums the sweeps that found nothing over every spinning
// thread.
func (s *Server) emptySweeps() (n uint64) {
	for i := range s.spinStats {
		n += s.spinStats[i].emptySweeps.Load()
	}
	return n
}

// opKinds are the request kinds the server tracks latency for, each with
// the opcode its histogram is kept under; a get-rest counts as a get.
var opKinds = []struct {
	name string
	op   wire.Op
}{{"PUT", wire.OpPut}, {"DEL", wire.OpDelete}, {"GET", wire.OpGet}, {"SCAN", wire.OpScan}}

// Errors reported by the server.
var (
	ErrClosed        = errors.New("server: closed")
	ErrUnknownRegion = errors.New("server: region not hosted here")
	ErrNotPrimary    = errors.New("server: not primary for region")
	ErrRegionExists  = errors.New("server: region already hosted")
)

// New creates a region server and starts its spinning threads and
// worker pool.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.Device == nil || cfg.Endpoint == nil {
		return nil, fmt.Errorf("server: Device and Endpoint are required")
	}
	// Every hosted engine and replica writes through the integrity layer:
	// segment frames with CRC-32C trailers, verified on first read
	// (DESIGN.md "Storage integrity"). A device that already verifies is
	// left as-is.
	dev := storage.AsVerifying(cfg.Device)
	cfg.Device = dev
	s := &Server{
		cfg:       cfg,
		dev:       dev,
		trace:     cfg.Trace.Node(cfg.Name),
		regions:   make(map[region.ID]*hostedRegion),
		stop:      make(chan struct{}),
		spinStats: make([]spinStat, cfg.SpinThreads),
	}
	for _, k := range opKinds {
		s.opLat[k.op] = metrics.NewHistogram()
	}
	s.opLat[wire.OpGetRest] = s.opLat[wire.OpGet]
	s.openConns.Store(new([]*clientConn))
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.MaxThreshold == 0 {
			ac.MaxThreshold = cfg.TaskThreshold
		}
		if ac.Events == nil {
			ac.Events = cfg.Events
		}
		if ac.Node == "" {
			ac.Node = cfg.Name
		}
		s.ctrl = admission.New(ac)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(s, i)
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run()
	}
	for i := 0; i < cfg.SpinThreads; i++ {
		s.wg.Add(1)
		go s.spin(i)
	}
	if cfg.GC.Enabled {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// Name returns the server's name.
func (s *Server) Name() string { return s.cfg.Name }

// Endpoint returns the server's NIC.
func (s *Server) Endpoint() *rdma.Endpoint { return s.cfg.Endpoint }

// Device returns the server's storage device.
func (s *Server) Device() storage.Device { return s.cfg.Device }

// Cycles returns the server's cycle account.
func (s *Server) Cycles() *metrics.Cycles { return s.cfg.Cycles }

// CompactionStats returns the node's compaction sink, shared by every
// region it hosts.
func (s *Server) CompactionStats() *metrics.CompactionStats { return s.cfg.LSM.CompactionStats }

// Failures returns the node's failure metrics.
func (s *Server) Failures() *metrics.FailureStats { return s.cfg.Failures }

// Stages returns the per-stage, per-tenant latency aggregator.
func (s *Server) Stages() *metrics.StageSet { return s.cfg.Stages }

// Admission returns the admission controller, or nil when the server
// runs with the fixed-knob dispatch threshold.
func (s *Server) Admission() *admission.Controller { return s.ctrl }

// Lag returns the per-backup replication-lag aggregator.
func (s *Server) Lag() *metrics.LagSet { return s.cfg.Lag }

// Events returns this node's control-plane event journal.
func (s *Server) Events() *obs.EventLog { return s.cfg.Events }

// Ready reports whether this node is safe to serve and fail over to:
// nil while healthy, an error naming the first failing condition —
// closed, a degraded replication group (an evicted backup not yet
// replaced), or a device fault (a read found a corrupt segment). A
// faulted node stays faulted: the master recovers its regions by failing
// it over (DESIGN.md "Storage integrity").
func (s *Server) Ready() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	var degraded []region.ID
	for id, hr := range s.regions {
		if hr.primary != nil && hr.primary.Degraded() {
			degraded = append(degraded, id)
		}
	}
	s.mu.Unlock()
	sort.Slice(degraded, func(i, j int) bool { return degraded[i] < degraded[j] })
	if len(degraded) > 0 {
		return fmt.Errorf("server: replication degraded on regions %v", degraded)
	}
	if n := s.dev.Corruptions(); n > 0 {
		return fmt.Errorf("server: device faulted: %d corrupt segments", n)
	}
	return nil
}

// RegisterHealth wires this node's readiness conditions into an
// obs.Health so /readyz flips unhealthy while the node is degraded or
// device-faulted.
func (s *Server) RegisterHealth(h *obs.Health) {
	if h == nil {
		return
	}
	h.AddCheck(s.cfg.Name, s.Ready)
}

func (s *Server) charge(c metrics.Component, n uint64) {
	if s.cfg.Cycles != nil {
		s.cfg.Cycles.Charge(c, n)
	}
}

// lsmOptions builds the engine options for one hosted region.
func (s *Server) lsmOptions() lsm.Options {
	opt := s.cfg.LSM
	opt.Device = s.cfg.Device
	opt.Cycles = s.cfg.Cycles
	opt.Cost = s.cfg.Cost
	opt.Trace = s.trace
	return opt
}

// primaryConfig wires one hosted region's primary replica to the
// server's endpoint, cost model and stats sinks.
func (s *Server) primaryConfig(id region.ID, mode replica.Mode) replica.PrimaryConfig {
	return replica.PrimaryConfig{
		RegionID:     id,
		ServerName:   s.cfg.Name,
		Mode:         mode,
		Endpoint:     s.cfg.Endpoint,
		Cycles:       s.cfg.Cycles,
		Cost:         s.cfg.Cost,
		ShipCodec:    s.cfg.ShipCodec,
		ShipPageSize: s.cfg.LSM.NodeSize,
		Ship:         s.cfg.Ship,
		Retry:        s.cfg.Retry,
		Failures:     s.cfg.Failures,
		Trace:        s.trace,
		Stages:       s.cfg.Stages,
		Lag:          s.cfg.Lag,
		Events:       s.cfg.Events,
	}
}

// backupConfig is primaryConfig's counterpart for the backup role.
func (s *Server) backupConfig(id region.ID, mode replica.Mode) replica.BackupConfig {
	opt := s.cfg.LSM
	opt.Trace = s.trace
	return replica.BackupConfig{
		RegionID:   id,
		ServerName: s.cfg.Name,
		Mode:       mode,
		Device:     s.cfg.Device,
		Endpoint:   s.cfg.Endpoint,
		Cycles:     s.cfg.Cycles,
		Cost:       s.cfg.Cost,
		LSM:        opt,
		Trace:      s.trace,
	}
}

// OpenPrimary hosts a region with the primary role and returns its
// replica state so the master can attach backups.
func (s *Server) OpenPrimary(r region.Region, mode replica.Mode) (*replica.Primary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.regions[r.ID]; ok {
		return nil, fmt.Errorf("%w: %d", ErrRegionExists, r.ID)
	}
	p := replica.NewPrimary(s.primaryConfig(r.ID, mode))
	opt := s.lsmOptions()
	if mode != replica.NoReplication {
		opt.Listener = p
	}
	db, err := lsm.New(opt)
	if err != nil {
		return nil, err
	}
	p.SetDB(db)
	s.regions[r.ID] = &hostedRegion{
		info: r.Clone(), mode: mode, primary: p, db: db,
	}
	return p, nil
}

// OpenBackup hosts a region with the backup role.
func (s *Server) OpenBackup(r region.Region, mode replica.Mode) (*replica.Backup, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.regions[r.ID]; ok {
		return nil, fmt.Errorf("%w: %d", ErrRegionExists, r.ID)
	}
	b, err := replica.NewBackup(s.backupConfig(r.ID, mode))
	if err != nil {
		return nil, err
	}
	s.regions[r.ID] = &hostedRegion{info: r.Clone(), mode: mode, backup: b}
	return b, nil
}

// PromoteToPrimary converts a hosted backup into the primary role
// (§3.5). The returned replica state lets the master attach the
// remaining backups to the new primary.
func (s *Server) PromoteToPrimary(id region.ID) (*replica.Primary, error) {
	s.mu.Lock()
	hr, ok := s.regions[id]
	s.mu.Unlock()
	if !ok || hr.backup == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownRegion, id)
	}
	db, err := hr.backup.Promote()
	if err != nil {
		return nil, err
	}
	p := replica.NewPrimary(s.primaryConfig(id, hr.mode))
	p.SetDB(db)
	db.SetListener(p)

	s.mu.Lock()
	hr.primary = p
	hr.db = db
	hr.info.Primary = s.cfg.Name
	hr.backup = nil
	s.mu.Unlock()
	s.cfg.Events.Record(obs.Event{
		Type: obs.EvPromoted, Node: s.cfg.Name,
		Msg:    "backup promoted to primary",
		Fields: map[string]string{"region": fmt.Sprint(id)},
	})
	return p, nil
}

// Backup returns the hosted backup replica of a region, if any.
func (s *Server) Backup(id region.ID) (*replica.Backup, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hr, ok := s.regions[id]
	if !ok || hr.backup == nil {
		return nil, false
	}
	return hr.backup, true
}

// Primary returns the hosted primary replica of a region, if any.
func (s *Server) Primary(id region.ID) (*replica.Primary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hr, ok := s.regions[id]
	if !ok || hr.primary == nil {
		return nil, false
	}
	return hr.primary, true
}

// DropRegion removes a hosted region (used when the master reassigns).
func (s *Server) DropRegion(id region.ID) error {
	s.mu.Lock()
	hr, ok := s.regions[id]
	delete(s.regions, id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRegion, id)
	}
	if hr.db != nil {
		return hr.db.Close()
	}
	return nil
}

// Regions lists hosted region IDs.
func (s *Server) Regions() []region.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]region.ID, 0, len(s.regions))
	for id := range s.regions {
		out = append(out, id)
	}
	return out
}

// ShipStats returns the node's ship-codec traffic counters.
func (s *Server) ShipStats() *metrics.ShipStats { return s.cfg.Ship }

// engines snapshots every engine this server runs — its primaries' and
// its Build-Index backups' own. A backup indexes each flushed log
// segment before it acks the flush, so a backup engine holds every
// flush acked so far.
func (s *Server) engines() []*lsm.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	dbs := make([]*lsm.DB, 0, len(s.regions))
	for _, hr := range s.regions {
		if hr.db != nil {
			dbs = append(dbs, hr.db)
		}
		if hr.backup != nil && hr.backup.DB() != nil {
			dbs = append(dbs, hr.backup.DB())
		}
	}
	return dbs
}

// WaitIdle drains the compactions of every hosted engine (benchmarks
// call this before reading amplification counters).
func (s *Server) WaitIdle() error {
	for _, db := range s.engines() {
		if err := db.WaitIdle(); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces every hosted engine's L0 down and drains compactions —
// primaries and Build-Index backup engines alike, so both replication
// schemes are charged their full maintenance work before counters are
// read.
func (s *Server) Flush() error {
	for _, db := range s.engines() {
		if err := db.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Crash simulates a node failure: message processing stops immediately
// and replication connections drop, without flushing or closing the
// hosted engines (their in-memory state is lost with the "machine").
// Last, the node's endpoint closes, as its NIC would: a client waiting
// on a reply to a request the server never answered sees that and
// fails over at once.
func (s *Server) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	regions := make([]*hostedRegion, 0, len(s.regions))
	for _, hr := range s.regions {
		regions = append(regions, hr)
	}
	conns := append([]*clientConn(nil), s.conns...)
	s.mu.Unlock()

	// Tear down client connections: requests to this server now fail
	// fast at the writer (the RDMA connection "breaks").
	for _, conn := range conns {
		conn.closed.Store(true)
		s.cfg.Endpoint.Deregister(conn.reqBuf)
		conn.replyQP.Close()
	}

	close(s.stop)
	for _, w := range s.workers {
		close(w.queue)
	}
	s.wg.Wait()
	for _, hr := range regions {
		if hr.primary != nil {
			hr.primary.DetachAll()
		}
		if hr.backup != nil {
			// Drop the backup's RDMA resources so a remote primary's next
			// write or RPC to this "machine" fails fast and evicts it.
			hr.backup.Crash()
		}
	}
	s.cfg.Endpoint.Close()
}

// Close shuts the server down: spinning threads and workers exit, all
// hosted engines drain and close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	regions := make([]*hostedRegion, 0, len(s.regions))
	for _, hr := range s.regions {
		regions = append(regions, hr)
	}
	s.mu.Unlock()

	s.mu.Lock()
	conns := append([]*clientConn(nil), s.conns...)
	s.mu.Unlock()
	close(s.stop)
	for _, w := range s.workers {
		close(w.queue)
	}
	s.wg.Wait()
	for _, conn := range conns {
		conn.closed.Store(true)
		s.cfg.Endpoint.Deregister(conn.reqBuf)
		conn.replyQP.Close()
	}

	var firstErr error
	for _, hr := range regions {
		if hr.primary != nil {
			hr.primary.DetachAll()
		}
		if hr.db != nil {
			if err := hr.db.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
