package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"tebis/internal/metrics"
)

// Span is one completed interval of work: a merge, build, ship (per
// backup), or offset-rewrite stage of one compaction job, or one hop of
// a sampled client request (client op, server dispatch, primary apply,
// per-backup ship/ack).
type Span struct {
	// Node is the server the work ran on ("" when the tracer is not
	// node-scoped); it becomes the Chrome trace process.
	Node string
	// Cat is the span category ("compaction", "replication", "request").
	Cat string
	// Name is the stage name ("merge", "build", "ship", "rewrite",
	// "put", "dispatch", "apply", "ack").
	Name string
	// JobID is the scheduler's compaction job ID; it becomes the Chrome
	// trace thread, so all stages of one job share a row.
	JobID uint64
	// Req is the sampled request's trace ID. Request spans share it
	// across client, server, and backups, so one Chrome trace row shows
	// a put's whole replication fan-out.
	Req uint64
	// Backup names the destination backup for ship/rewrite/ack spans.
	Backup string
	// Tenant names the request's tenant for sampled request spans
	// ("" when the request carried no tenant or the span is not
	// request-scoped).
	Tenant string
	// Region is the region the span's work addressed (server dispatch,
	// primary apply, client op). HasRegion distinguishes region 0 from
	// "not region-scoped" — compaction stage spans, for example.
	Region    uint16
	HasRegion bool
	// Bytes is the payload size the span moved, when meaningful.
	Bytes int64
	// Start and Dur bound the interval.
	Start time.Time
	Dur   time.Duration
}

// spanFixedBytes approximates the in-memory size of a Span's fixed
// part (string headers, ints, time fields) for the ring's byte budget.
const spanFixedBytes = 112

// bytes approximates the resident size of s, fixed part plus string
// payloads. Span strings are usually shared constants, so this
// overcounts — the budget errs toward dropping early, never OOM.
func (s *Span) bytes() int {
	return spanFixedBytes + len(s.Node) + len(s.Cat) + len(s.Name) + len(s.Backup) + len(s.Tenant)
}

// ring is the bounded span buffer shared by all node-scoped views of
// one Tracer. It is a deque over a fixed slice: head indexes the
// oldest span, size counts the live ones, and bytes tracks their
// approximate resident memory so the ring is bounded in bytes as well
// as span count.
type ring struct {
	mu       sync.Mutex
	spans    []Span
	head     int
	size     int
	bytes    int
	maxBytes int
	dropped  uint64
	// epoch anchors Chrome trace timestamps so ts values stay small.
	epoch time.Time
}

// Tracer records spans into a bounded ring. A nil *Tracer drops spans,
// so unwired code paths pay only a nil check. Node returns views that
// share the ring but stamp Span.Node, letting every server in a
// shared-process cluster trace into one timeline.
type Tracer struct {
	node string
	r    *ring
}

// DefaultTraceCap is the ring capacity NewTracer(0) uses; at five spans
// per compaction it holds several hundred complete jobs.
const DefaultTraceCap = 4096

// DefaultTraceMaxBytes is the ring's byte budget when NewTracer is
// given none: enough for DefaultTraceCap spans with typical string
// payloads, and a hard ceiling on tracer memory regardless of span
// size.
const DefaultTraceMaxBytes = 1 << 20

// NewTracer returns a tracer whose ring holds up to capacity spans
// (DefaultTraceCap when capacity <= 0) within DefaultTraceMaxBytes.
// Once either bound is hit, new spans evict the oldest.
func NewTracer(capacity int) *Tracer {
	return NewTracerBytes(capacity, 0)
}

// NewTracerBytes is NewTracer with an explicit byte budget
// (DefaultTraceMaxBytes when maxBytes <= 0). The ring evicts oldest
// spans while over either the span-count or the byte bound; evictions
// count toward Dropped.
func NewTracerBytes(capacity, maxBytes int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	if maxBytes <= 0 {
		maxBytes = DefaultTraceMaxBytes
	}
	return &Tracer{r: &ring{
		spans:    make([]Span, capacity),
		maxBytes: maxBytes,
		epoch:    time.Now(),
	}}
}

// Node returns a view of t that stamps Span.Node on every recorded
// span. Nil-safe: a nil tracer returns nil.
func (t *Tracer) Node(name string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{node: name, r: t.r}
}

// Record adds one span to the ring, evicting the oldest spans while
// the ring is over its span-count or byte bound.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.Node == "" {
		s.Node = t.node
	}
	nb := s.bytes()
	r := t.r
	r.mu.Lock()
	for r.size > 0 && (r.size == len(r.spans) || r.bytes+nb > r.maxBytes) {
		r.bytes -= r.spans[r.head].bytes()
		r.spans[r.head] = Span{}
		r.head++
		if r.head == len(r.spans) {
			r.head = 0
		}
		r.size--
		r.dropped++
	}
	tail := r.head + r.size
	if tail >= len(r.spans) {
		tail -= len(r.spans)
	}
	r.spans[tail] = s
	r.size++
	r.bytes += nb
	r.mu.Unlock()
}

// Snapshot returns the buffered spans in recording order.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	r := t.r
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.size)
	for i := 0; i < r.size; i++ {
		j := r.head + i
		if j >= len(r.spans) {
			j -= len(r.spans)
		}
		out = append(out, r.spans[j])
	}
	return out
}

// Dropped returns how many spans were evicted since the last Reset —
// the sampling loss the tebis_trace_dropped_spans_total family exposes.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.r.dropped
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.r.size
}

// Bytes returns the approximate resident memory of the buffered spans.
func (t *Tracer) Bytes() int {
	if t == nil {
		return 0
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.r.bytes
}

// Collect implements metrics.Source: the span ring's occupancy and
// eviction counters, so trace loss under load (spans dropped to stay
// inside the ring's span-count and byte bounds) is visible on /metrics.
// Views made by Node share the ring; register the tracer they came from.
func (t *Tracer) Collect() []metrics.Family {
	if t == nil {
		return nil
	}
	r := t.r
	r.mu.Lock()
	dropped, size, bytes := r.dropped, r.size, r.bytes
	r.mu.Unlock()
	return []metrics.Family{
		metrics.Counter("tebis_trace_dropped_spans_total",
			"Spans evicted from the trace ring to stay within its bounds.", metrics.Value(float64(dropped))),
		metrics.Gauge("tebis_trace_spans",
			"Spans currently buffered in the trace ring.", metrics.Value(float64(size))),
		metrics.Gauge("tebis_trace_bytes",
			"Approximate resident bytes of the buffered trace spans.", metrics.Value(float64(bytes))),
	}
}

// MaxBytes returns the ring's byte budget.
func (t *Tracer) MaxBytes() int {
	if t == nil {
		return 0
	}
	return t.r.maxBytes
}

// Reset discards all buffered spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	r := t.r
	r.mu.Lock()
	for i := range r.spans {
		r.spans[i] = Span{}
	}
	r.head = 0
	r.size = 0
	r.bytes = 0
	r.dropped = 0
	r.mu.Unlock()
}

// ReqTrace is the span context of one sampled client request: the
// trace ID that ties the request's spans together across nodes, bound
// to the local node's tracer view. Each hop (client, server, backup)
// builds its own ReqTrace from the wire header's trace ID via
// Tracer.Request. A nil *ReqTrace records nothing, so unsampled
// requests pay only a nil check.
type ReqTrace struct {
	t      *Tracer
	id     uint64
	tenant string
}

// Request returns a span context for trace id on t. Nil-safe: a nil
// tracer, or id 0 (the wire encoding of "unsampled"), returns nil.
func (t *Tracer) Request(id uint64) *ReqTrace {
	if t == nil || id == 0 {
		return nil
	}
	return &ReqTrace{t: t, id: id}
}

// ID returns the trace ID, or 0 when rt is nil — the value to put in
// an outgoing wire header.
func (rt *ReqTrace) ID() uint64 {
	if rt == nil {
		return 0
	}
	return rt.id
}

// SetTenant binds the request's tenant so downstream hops (apply,
// ship, ack) attribute their spans without re-reading the wire header.
// Call it once, before handing rt to other code paths. Nil-safe.
func (rt *ReqTrace) SetTenant(tenant string) {
	if rt == nil {
		return
	}
	rt.tenant = tenant
}

// Tenant returns the bound tenant, or "" for a nil rt.
func (rt *ReqTrace) Tenant() string {
	if rt == nil {
		return ""
	}
	return rt.tenant
}

// Record stamps s with the request's trace ID (and tenant, unless the
// span set its own) and records it.
func (rt *ReqTrace) Record(s Span) {
	if rt == nil {
		return
	}
	s.Req = rt.id
	if s.Tenant == "" {
		s.Tenant = rt.tenant
	}
	rt.t.Record(s)
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (load chrome://tracing or https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds since epoch start
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the buffered spans as Chrome trace-event
// JSON. Each node becomes a process (with a process_name metadata
// event); compaction spans thread by job ID and request spans by trace
// ID, so the merge/build/ship/rewrite stages of one job — and the
// dispatch/apply/ship/ack hops of one sampled request — each line up
// on one row.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	spans := t.Snapshot()
	t.r.mu.Lock()
	epoch := t.r.epoch
	t.r.mu.Unlock()

	// Assign stable pids per node, sorted for deterministic output.
	nodes := make(map[string]int)
	for _, s := range spans {
		nodes[s.Node] = 0
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		nodes[n] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)+len(names))
	for _, n := range names {
		label := n
		if label == "" {
			label = "tebis"
		}
		events = append(events, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  nodes[n],
			Args: map[string]any{"name": label},
		})
	}
	for _, s := range spans {
		args := map[string]any{}
		tid := s.JobID
		if s.JobID != 0 {
			args["job"] = s.JobID
		}
		if s.Req != 0 {
			args["req"] = s.Req
			if tid == 0 {
				tid = s.Req
			}
		}
		if s.Backup != "" {
			args["backup"] = s.Backup
		}
		if s.Tenant != "" {
			args["tenant"] = s.Tenant
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.HasRegion {
			args["region"] = s.Region
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  nodes[s.Node],
			Tid:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events})
}
