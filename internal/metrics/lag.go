package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// lagKey identifies one (region, backup) replication stream.
type lagKey struct {
	region uint64
	backup string
}

// LagStream is one (region, backup) stream's progress: how much the
// primary has shipped versus how much the backup has acknowledged, the
// segment-ship pipeline depth, the last ship and ack times, and the ack
// round-trip histogram. Whoever ships to the backup holds its stream, so
// recording looks nothing up. All methods are nil-safe: a nil LagSet
// hands out nil streams.
type LagStream struct {
	mu           sync.Mutex
	shippedOps   uint64
	shippedBytes uint64
	ackedOps     uint64
	ackedBytes   uint64
	backlog      int64
	lastShip     time.Time
	lastAck      time.Time
	rtt          *Histogram
}

// LagSet tracks per-backup replication lag on a primary: acked-vs-
// shipped sequence lag in ops and bytes, ship-pipeline backlog depth,
// last-ack age (staleness), and per-backup ack-RTT histograms. All
// methods are nil-safe, like StageSet, so lag wiring costs unwired
// paths only a nil check. Streams appear on Stream and disappear on
// Evict, so gauges for a dead backup stop rendering.
type LagSet struct {
	mu   sync.Mutex
	recs map[lagKey]*LagStream
}

// NewLagSet returns an empty lag aggregator.
func NewLagSet() *LagSet {
	return &LagSet{recs: make(map[lagKey]*LagStream)}
}

// Stream returns the (region, backup) stream, created on first use.
func (s *LagSet) Stream(region uint64, backup string) *LagStream {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := lagKey{region, backup}
	r := s.recs[k]
	if r == nil {
		r = &LagStream{rtt: NewHistogram()}
		s.recs[k] = r
	}
	return r
}

// RecordShip accounts one replicated unit (a value-log record) handed
// to the wire at the given time. Until the matching RecordAck arrives
// the unit counts as lag.
func (r *LagStream) RecordShip(bytes int, at time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.shippedOps++
	r.shippedBytes += uint64(bytes)
	r.lastShip = at
	r.mu.Unlock()
}

// RecordAck accounts one unit acknowledged at the given time, with its
// round trip.
func (r *LagStream) RecordAck(bytes int, at time.Time, rtt time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ackedOps++
	r.ackedBytes += uint64(bytes)
	r.lastAck = at
	r.mu.Unlock()
	r.rtt.Record(rtt)
}

// BacklogAdd marks one index-segment ship entering the pipeline.
func (r *LagStream) BacklogAdd() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.backlog++
	r.mu.Unlock()
}

// BacklogDone marks one index-segment ship leaving the pipeline
// (acknowledged or abandoned with its backup).
func (r *LagStream) BacklogDone() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.backlog > 0 {
		r.backlog--
	}
	r.mu.Unlock()
}

// Evict drops a backup's stream: an evicted replica's lag is no longer
// a property of the group, and its gauges must stop rendering rather
// than freeze at the pre-eviction value.
func (s *LagSet) Evict(region uint64, backup string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.recs, lagKey{region, backup})
	s.mu.Unlock()
}

// lag is the shipped-but-unacknowledged window of one stream under r.mu.
func (r *LagStream) lag() (ops, bytes uint64) {
	if r.shippedOps > r.ackedOps {
		ops = r.shippedOps - r.ackedOps
	}
	if r.shippedBytes > r.ackedBytes {
		bytes = r.shippedBytes - r.ackedBytes
	}
	return ops, bytes
}

// staleness computes the last-ack age of one stream under r.mu: zero
// while the backup is caught up (every shipped unit acked), otherwise
// the time since its last ack — or since the first un-acked ship when
// the backup has never acked at all.
func (r *LagStream) staleness(now time.Time) time.Duration {
	if r.ackedOps >= r.shippedOps {
		return 0
	}
	since := r.lastAck
	if since.IsZero() {
		since = r.lastShip
	}
	if since.IsZero() {
		return 0
	}
	return now.Sub(since)
}

// LagSnapshot is one (region, backup) stream at snapshot time.
type LagSnapshot struct {
	Region   uint64
	Backup   string
	LagOps   uint64
	LagBytes uint64
	Backlog  int64
	// Staleness is the last-ack age: zero while caught up.
	Staleness time.Duration
	AckCount  uint64
	// AckPercentiles aligns index-for-index with Quantiles.
	AckPercentiles []time.Duration
}

// Snapshot returns every stream, ordered by region then backup for
// deterministic exposition.
func (s *LagSet) Snapshot() []LagSnapshot {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.mu.Lock()
	out := make([]LagSnapshot, 0, len(s.recs))
	recs := make([]*LagStream, 0, len(s.recs))
	for k, r := range s.recs {
		out = append(out, LagSnapshot{Region: k.region, Backup: k.backup})
		recs = append(recs, r)
	}
	s.mu.Unlock()
	for i, r := range recs {
		r.mu.Lock()
		out[i].Backlog, out[i].Staleness = r.backlog, r.staleness(now)
		out[i].LagOps, out[i].LagBytes = r.lag()
		r.mu.Unlock()
		out[i].AckCount, out[i].AckPercentiles = r.rtt.Summarize()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Region != out[b].Region {
			return out[a].Region < out[b].Region
		}
		return out[a].Backup < out[b].Backup
	})
	return out
}

// Collect implements Source with the replication-plane lag families,
// one child per (region, backup) stream: records and bytes shipped but
// not yet acknowledged, index-segment ships in flight, the last-ack age
// (zero while caught up), and the ack round-trip quantiles with the
// acks behind them.
func (s *LagSet) Collect() []Family {
	if s == nil {
		return nil
	}
	ops := Gauge("tebis_replica_lag_ops",
		"Value-log records shipped to a backup but not yet acknowledged.")
	bytes := Gauge("tebis_replica_lag_bytes",
		"Bytes shipped to a backup but not yet acknowledged.")
	backlog := Gauge("tebis_replica_backlog",
		"Index-segment ships in flight per backup.")
	staleness := Gauge("tebis_replica_staleness_seconds",
		"Age of a backup's last acknowledgement; zero while caught up.")
	ack := Summary("tebis_replica_ack_seconds",
		"Per-backup acknowledgement round-trip quantiles.")
	acks := Counter("tebis_replica_ack_seconds_count",
		"Acknowledgements behind the per-backup round-trip quantiles.")
	for _, sn := range s.Snapshot() {
		stream := fmt.Sprintf(`backup=%q,region="%d"`, sn.Backup, sn.Region)
		ops.Add(stream, float64(sn.LagOps))
		bytes.Add(stream, float64(sn.LagBytes))
		backlog.Add(stream, float64(sn.Backlog))
		staleness.Add(stream, sn.Staleness.Seconds())
		for i, q := range Quantiles {
			ack.Add(fmt.Sprintf(`backup=%q,quantile=%q,region="%d"`, sn.Backup, q.Label, sn.Region),
				sn.AckPercentiles[i].Seconds())
		}
		acks.Add(stream, float64(sn.AckCount))
	}
	return []Family{ops, bytes, backlog, staleness, ack, acks}
}

// Lag answers a single stream's current lag — the bench harness' fast
// path for gate checks. Zeroes when the stream is unknown.
func (s *LagSet) Lag(region uint64, backup string) (ops, bytes uint64) {
	r := s.lookup(region, backup)
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lag()
}

// Staleness answers a single stream's last-ack age; zero when caught
// up or unknown.
func (s *LagSet) Staleness(region uint64, backup string) time.Duration {
	r := s.lookup(region, backup)
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staleness(now)
}

// lookup returns a known stream without creating one.
func (s *LagSet) lookup(region uint64, backup string) *LagStream {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs[lagKey{region, backup}]
}
