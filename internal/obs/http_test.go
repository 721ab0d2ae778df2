package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tebis/internal/metrics"
)

func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Result().StatusCode, string(body)
}

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Register(nil, &fixedSource{fams: []metrics.Family{metrics.Counter("tebis_test_total", "h", metrics.Value(9))}})
	tr := NewTracer(8)
	tr.Record(Span{Name: "merge", JobID: 1, Start: time.Now(), Dur: time.Millisecond})
	samp := NewSampler(reg, time.Hour, 4)
	samp.Tick()
	ev := NewEventLog(8)
	ev.Record(Event{Type: EvBackupEvicted, Node: "s0", Fields: map[string]string{"backup": "s1"}})
	health := NewHealth()
	ready := true
	health.AddCheck("degraded", func() error {
		if !ready {
			return fmt.Errorf("replication degraded")
		}
		return nil
	})
	mux := NewMux(reg, tr, samp, ev, health)

	code, body := get(t, mux, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "tebis_test_total 9") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}

	code, body = get(t, mux, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: code=%d", code)
	}
	var journal struct {
		Events []Event           `json:"events"`
		Counts map[string]uint64 `json:"counts"`
	}
	if err := json.Unmarshal([]byte(body), &journal); err != nil {
		t.Fatalf("/debug/events is not JSON: %v", err)
	}
	if len(journal.Events) != 1 || journal.Events[0].Type != EvBackupEvicted ||
		journal.Events[0].Field("backup") != "s1" || journal.Counts[EvBackupEvicted] != 1 {
		t.Fatalf("/debug/events = %+v", journal)
	}

	if code, _ = get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: code=%d", code)
	}
	if code, _ = get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz while ready: code=%d", code)
	}
	ready = false
	code, body = get(t, mux, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("/readyz while degraded: code=%d body=%q", code, body)
	}
	ready = true

	code, body = get(t, mux, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}

	code, body = get(t, mux, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: code=%d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace exported no events")
	}

	code, body = get(t, mux, "/metrics/history")
	if code != http.StatusOK {
		t.Fatalf("/metrics/history: code=%d", code)
	}
	var hist struct {
		Ticks  uint64                      `json:"ticks"`
		Series map[string]map[string][]any `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatalf("/metrics/history is not JSON: %v", err)
	}
	if hist.Ticks != 1 || len(hist.Series) == 0 {
		t.Fatalf("/metrics/history: ticks=%d series=%d", hist.Ticks, len(hist.Series))
	}

	code, body = get(t, mux, "/metrics/history?format=csv")
	if code != http.StatusOK {
		t.Fatalf("/metrics/history?format=csv: code=%d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if lines[0] != "series,t_ms,v" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 2 || !strings.Contains(body, "tebis_test_total") {
		t.Fatalf("csv missing sampled series:\n%s", body)
	}

	code, body = get(t, mux, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, _ = get(t, mux, "/debug/pprof/symbol"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/symbol: code=%d", code)
	}
}

// Unknown paths must 404 instead of silently serving something, and
// "/" itself serves an index of the mounted endpoints.
func TestMuxUnknownPath404(t *testing.T) {
	mux := NewMux(NewRegistry(), NewTracer(8), nil, nil, nil)
	if code, _ := get(t, mux, "/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
	if code, _ := get(t, mux, "/metricsx"); code != http.StatusNotFound {
		t.Fatalf("/metricsx: code=%d, want 404", code)
	}
	code, body := get(t, mux, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("/: code=%d body=%q", code, body)
	}
}

// Every path the index at "/" names is mounted, so the index lists
// nothing that 404s, and /debug/profiler, which it does not name, is
// not served.
func TestMuxIndexListsOnlyMountedPaths(t *testing.T) {
	mux := NewMux(nil, nil, nil, nil, nil)
	var paths []string
	for _, line := range strings.Split(muxIndex, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "/") {
			paths = append(paths, f[0])
		}
	}
	if len(paths) < 8 {
		t.Fatalf("muxIndex names %d paths, want at least 8: %q", len(paths), muxIndex)
	}
	for _, p := range paths {
		if code, _ := get(t, mux, p); code == http.StatusNotFound {
			t.Errorf("%s is in the index but answers 404", p)
		}
	}
	if code, _ := get(t, mux, "/debug/profiler"); code != http.StatusNotFound {
		t.Errorf("/debug/profiler: code=%d, want 404", code)
	}
}

func TestMuxNilComponents(t *testing.T) {
	mux := NewMux(nil, nil, nil, nil, nil)
	if code, _ := get(t, mux, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics with nil registry: code=%d", code)
	}
	code, body := get(t, mux, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace with nil tracer: code=%d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("nil tracer trace is not JSON: %v", err)
	}
	code, body = get(t, mux, "/metrics/history")
	if code != http.StatusOK {
		t.Fatalf("/metrics/history with nil sampler: code=%d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("nil sampler history is not JSON: %v", err)
	}
	code, body = get(t, mux, "/metrics/history?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(body, "series,t_ms,v") {
		t.Fatalf("nil sampler csv: code=%d body=%q", code, body)
	}
	code, body = get(t, mux, "/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events with nil journal: code=%d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("nil journal events is not JSON: %v", err)
	}
	if code, _ = get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with nil health: code=%d", code)
	}
	// A nil health has no checks, so readiness defaults to ready.
	if code, _ = get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with nil health: code=%d", code)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Register(nil, &fixedSource{fams: []metrics.Family{metrics.Counter("tebis_served_total", "h", metrics.Value(1))}})
	addr, err := Serve("127.0.0.1:0", reg, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "tebis_served_total 1") {
		t.Fatalf("served body %q", body)
	}
}
