package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Stage names of the request pipeline, in pipeline order. Every sampled
// op decomposes into these intervals: time queued client-side before
// the request hits the wire, time between server receive and a worker
// picking the task up, the primary LSM apply, the per-backup index/log
// ship, and the per-backup completion ack.
const (
	StageClientQueue = "client_queue"
	StageDispatch    = "dispatch"
	StageApply       = "apply"
	StageShip        = "ship"
	StageAck         = "ack"
)

// StageOrder lists the stages in pipeline order for deterministic
// report layouts.
var StageOrder = []string{
	StageClientQueue, StageDispatch, StageApply, StageShip, StageAck,
}

// exemplarBounds are the upper bounds of the coarse log-scale buckets
// each (stage, tenant) record retains exemplars for. The last,
// unbounded bucket catches everything slower — the "why is p99 slow"
// bucket. Bounds are coarse on purpose: the point is not resolution
// (the histogram has that) but keeping one resolvable trace ID per
// latency regime.
var exemplarBounds = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
}

// exemplarBuckets counts the coarse buckets: one per bound plus the
// unbounded overflow bucket (keep in sync with exemplarBounds).
const exemplarBuckets = 5

// Exemplar is one retained worst-offender sample: the trace ID of a
// recent sampled op whose stage duration landed in the bucket bounded
// by Le (Le == 0 means +Inf). Feed the ID to /debug/trace to see the
// full fan-out of that exact request.
type Exemplar struct {
	TraceID uint64
	Tenant  string
	Dur     time.Duration
	// Le is the bucket's upper bound; 0 marks the unbounded bucket.
	Le time.Duration
}

// exemplarFor maps a duration to its coarse bucket index.
func exemplarFor(d time.Duration) int {
	for i, b := range exemplarBounds {
		if d <= b {
			return i
		}
	}
	return len(exemplarBounds)
}

// stageKey identifies one (stage, tenant) series.
type stageKey struct {
	stage, tenant string
}

// stageRec is the per-(stage, tenant) state: a full-resolution latency
// histogram plus one retained exemplar per coarse bucket. Retention
// policy: each bucket keeps the most recent sample that landed in it,
// so the highest non-empty bucket always names a recent worst
// offender and stale trace IDs age out as traffic flows.
type stageRec struct {
	hist *Histogram
	ex   [exemplarBuckets]Exemplar
}

// StageSet aggregates per-stage, per-tenant latency. All methods are
// nil-safe: a nil *StageSet discards samples and reports nothing, so
// stage wiring costs unwired paths only a nil check. Records for new
// (stage, tenant) pairs appear on first Record.
type StageSet struct {
	mu   sync.Mutex
	recs map[stageKey]*stageRec
}

// NewStageSet returns an empty stage aggregator.
func NewStageSet() *StageSet {
	return &StageSet{recs: make(map[stageKey]*stageRec)}
}

// Record adds one stage sample. traceID may be 0 (no exemplar
// retained); tenant "" aggregates under the default tenant.
func (s *StageSet) Record(stage, tenant string, traceID uint64, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	k := stageKey{stage, tenant}
	r := s.recs[k]
	if r == nil {
		r = &stageRec{hist: NewHistogram()}
		s.recs[k] = r
	}
	if traceID != 0 {
		i := exemplarFor(d)
		le := time.Duration(0)
		if i < len(exemplarBounds) {
			le = exemplarBounds[i]
		}
		r.ex[i] = Exemplar{TraceID: traceID, Tenant: tenant, Dur: d, Le: le}
	}
	s.mu.Unlock()
	r.hist.Record(d)
}

// StageSnapshot is one (stage, tenant) series at snapshot time.
type StageSnapshot struct {
	Stage  string
	Tenant string
	Count  uint64
	// Percentiles aligns index-for-index with Quantiles.
	Percentiles []time.Duration
	// Exemplars holds the retained worst offenders, lowest bucket
	// first; empty buckets are omitted.
	Exemplars []Exemplar
}

// Snapshot returns every (stage, tenant) series, ordered by pipeline
// stage then tenant for deterministic exposition.
func (s *StageSet) Snapshot() []StageSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]StageSnapshot, 0, len(s.recs))
	hists := make([]*Histogram, 0, len(s.recs))
	for k, r := range s.recs {
		snap := StageSnapshot{Stage: k.stage, Tenant: k.tenant}
		for _, x := range r.ex {
			if x.TraceID != 0 {
				snap.Exemplars = append(snap.Exemplars, x)
			}
		}
		out = append(out, snap)
		hists = append(hists, r.hist)
	}
	s.mu.Unlock()
	for i, h := range hists {
		out[i].Count, out[i].Percentiles = h.Summarize()
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := stageRank(out[a].Stage), stageRank(out[b].Stage)
		if sa != sb {
			return sa < sb
		}
		if out[a].Stage != out[b].Stage {
			return out[a].Stage < out[b].Stage
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out
}

// Collect implements Source with the tail-attribution families
// (DESIGN.md "Observability"): per-stage latency quantiles of the
// sampled request pipeline, the samples behind them, and the retained
// worst offenders, one per coarse latency bucket — feed an exemplar's
// trace_id to /debug/trace to see that exact request's fan-out.
func (s *StageSet) Collect() []Family {
	if s == nil {
		return nil
	}
	seconds := Summary("tebis_op_stage_seconds",
		"Per-stage latency quantiles of sampled requests (client queue, dispatch, apply, ship, ack).")
	samples := Counter("tebis_op_stage_samples_total",
		"Sampled stage durations recorded per stage and tenant.")
	exemplars := Gauge("tebis_op_stage_exemplar_seconds",
		"Recent worst-offender stage durations; trace_id resolves on /debug/trace.")
	for _, sn := range s.Snapshot() {
		tenant := sn.Tenant
		if tenant == "" {
			tenant = "default"
		}
		series := fmt.Sprintf(`stage=%q,tenant=%q`, sn.Stage, tenant)
		for i, q := range Quantiles {
			seconds.Add(fmt.Sprintf(`%s,quantile=%q`, series, q.Label), sn.Percentiles[i].Seconds())
		}
		samples.Add(series, float64(sn.Count))
		for _, ex := range sn.Exemplars {
			le := "+Inf"
			if ex.Le > 0 {
				le = strconv.FormatFloat(ex.Le.Seconds(), 'g', -1, 64)
			}
			exemplars.Add(fmt.Sprintf(`%s,le=%q,trace_id="%d"`, series, le, ex.TraceID), ex.Dur.Seconds())
		}
	}
	return []Family{seconds, samples, exemplars}
}

// Percentile answers a single (stage, tenant) percentile query — the
// bench harness' fast path for gate checks. Returns 0 when the series
// has no samples.
func (s *StageSet) Percentile(stage, tenant string, p float64) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	r := s.recs[stageKey{stage, tenant}]
	s.mu.Unlock()
	if r == nil {
		return 0
	}
	return r.hist.Percentile(p)
}

// Reset clears all series and exemplars.
func (s *StageSet) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recs = make(map[stageKey]*stageRec)
	s.mu.Unlock()
}

// stageRank orders known stages pipeline-first; unknown stages sort
// after, alphabetically.
func stageRank(stage string) int {
	for i, n := range StageOrder {
		if n == stage {
			return i
		}
	}
	return len(StageOrder)
}
