package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tebis/internal/metrics"
)

// Event types of the control plane. Every state transition the cluster
// makes — replication-group membership, role changes, admission walks,
// GC passes — records exactly
// one typed event, so the journal is an auditable transition history
// and tebis_events_total{type} counts each kind.
const (
	EvServerStarted  = "server_started"
	EvBackupEvicted  = "backup_evicted"
	EvBackupReplaced = "backup_replaced"
	EvSyncStarted    = "sync_started"
	EvSyncDone       = "sync_done"
	EvPromoted       = "promoted"
	EvPrimaryFailed  = "primary_failover"
	EvAdmissionState = "admission_state"
	EvGCPass         = "gc_pass"
)

// Log levels, ordered by severity.
const (
	LevelDebug = "debug"
	LevelInfo  = "info"
	LevelWarn  = "warn"
	LevelError = "error"
)

// levelRank orders levels for the logger's threshold; unknown levels
// rank as info.
func levelRank(level string) int {
	switch level {
	case LevelDebug:
		return 0
	case LevelWarn:
		return 2
	case LevelError:
		return 3
	default:
		return 1
	}
}

// Event is one recorded control-plane transition.
type Event struct {
	// Seq is the journal-assigned sequence number, strictly increasing
	// per EventLog — the order assertion tests rely on.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Level is one of the Level* constants; empty records as info.
	Level string `json:"level"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Node is the server or master that made the transition.
	Node string `json:"node,omitempty"`
	// Msg is the human-readable line.
	Msg string `json:"msg,omitempty"`
	// Fields carries structured context (region, backup, phase, cause…).
	Fields map[string]string `json:"fields,omitempty"`
}

// Field returns one structured field, "" when absent.
func (e Event) Field(k string) string {
	if e.Fields == nil {
		return ""
	}
	return e.Fields[k]
}

// DefaultEventCapacity bounds the journal ring when NewEventLog is
// given a non-positive capacity.
const DefaultEventCapacity = 1024

// EventLog is a bounded, typed event ring: the newest events are
// retained, per-type counters are cumulative over the log's lifetime
// (they survive ring wrap), and an optional Logger sink renders every
// recorded event as a structured log line so the journal and the
// server log share one stream. All methods are nil-safe.
type EventLog struct {
	mu     sync.Mutex
	buf    []Event
	start  int // ring head (oldest)
	n      int // live entries
	seq    uint64
	counts map[string]uint64
	sink   *Logger
}

// NewEventLog returns an event ring holding the newest capacity events
// (DefaultEventCapacity when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{
		buf:    make([]Event, capacity),
		counts: make(map[string]uint64),
	}
}

// SetSink attaches a structured logger; every subsequent Record also
// emits one log line through it.
func (l *EventLog) SetSink(lg *Logger) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = lg
	l.mu.Unlock()
}

// Record appends one event: the sequence number is assigned here, a
// zero Time is stamped now, and an empty Level defaults to info.
func (l *EventLog) Record(e Event) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.Level == "" {
		e.Level = LevelInfo
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	l.counts[e.Type]++
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		kv := make([]any, 0, 2+2*len(e.Fields))
		kv = append(kv, "event", e.Type)
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			kv = append(kv, k, e.Fields[k])
		}
		sink.logAs(e.Level, e.Node, e.Msg, kv...)
	}
}

// Events snapshots the retained ring, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// OfType filters the retained ring to one event type, oldest first.
func (l *EventLog) OfType(t string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Counts returns the cumulative per-type counters (they outlive ring
// wrap) — the source of tebis_events_total{type}.
func (l *EventLog) Counts() map[string]uint64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// Collect implements metrics.Source: the cumulative per-type counters
// as tebis_events_total{type}; the events themselves serve on
// /debug/events.
func (l *EventLog) Collect() []metrics.Family {
	if l == nil {
		return nil
	}
	f := metrics.Counter("tebis_events_total", "Control-plane events recorded in the journal, by type.")
	for t, n := range l.Counts() {
		f.Add(fmt.Sprintf(`type=%q`, t), float64(n))
	}
	return []metrics.Family{f}
}

// Handler serves the journal as JSON: the retained events oldest first
// plus the cumulative per-type counters. ?type=X filters to one type.
func (l *EventLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := l.Events()
		if r != nil {
			if t := r.URL.Query().Get("type"); t != "" {
				filtered := events[:0]
				for _, e := range events {
					if e.Type == t {
						filtered = append(filtered, e)
					}
				}
				events = filtered
			}
		}
		if events == nil {
			events = []Event{}
		}
		counts := l.Counts()
		if counts == nil {
			counts = map[string]uint64{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"events": events,
			"counts": counts,
		})
	})
}

// Logger is a leveled structured logger writing one key=value line per
// call. It is nil-safe (a nil *Logger discards everything), safe for
// concurrent use, and shared between direct log calls and an EventLog
// sink so both render into one stream.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min int
}

// NewLogger returns a logger writing lines at or above min to w.
func NewLogger(w io.Writer, min string) *Logger {
	return &Logger{w: w, min: levelRank(min)}
}

// Debug logs at debug level. kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.logAs(LevelDebug, "", msg, kv...) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.logAs(LevelInfo, "", msg, kv...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.logAs(LevelWarn, "", msg, kv...) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.logAs(LevelError, "", msg, kv...) }

// logAs renders one line:
//
//	time=<RFC3339Nano> level=<level> [node=<node>] msg=<msg> k=v …
//
// Values quote only when they need it, so lines stay grep-friendly.
func (l *Logger) logAs(level, node, msg string, kv ...any) {
	if l == nil || l.w == nil || levelRank(level) < l.min {
		return
	}
	var b strings.Builder
	b.WriteString("time=")
	b.WriteString(time.Now().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(level)
	if node != "" {
		b.WriteString(" node=")
		b.WriteString(logValue(node))
	}
	b.WriteString(" msg=")
	b.WriteString(logValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(logValue(fmt.Sprint(kv[i+1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// logValue quotes a value only when it contains whitespace, quotes, or
// an equals sign.
func logValue(v string) string {
	if v == "" || strings.ContainsAny(v, " \t\n\"=") {
		return fmt.Sprintf("%q", v)
	}
	return v
}
