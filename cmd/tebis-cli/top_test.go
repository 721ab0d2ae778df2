package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const topTestMetrics = `# TYPE tebis_replication_retries_total counter
tebis_replication_retries_total{node="s0"} 42
# TYPE tebis_backup_evictions_total counter
tebis_backup_evictions_total{node="s0"} 13
# TYPE tebis_degraded gauge
tebis_degraded{node="s0"} 1
# TYPE tebis_admission_state gauge
tebis_admission_state{node="s0"} 1
# TYPE tebis_vlog_gc_segments_freed_total counter
tebis_vlog_gc_segments_freed_total{node="s0"} 7
# TYPE tebis_vlog_gc_reclaimed_bytes_total counter
tebis_vlog_gc_reclaimed_bytes_total{node="s0"} 1048576
# TYPE tebis_node_cache_hits_total counter
tebis_node_cache_hits_total{node="s0"} 975
# TYPE tebis_node_cache_misses_total counter
tebis_node_cache_misses_total{node="s0"} 25
# TYPE tebis_node_cache_bytes gauge
tebis_node_cache_bytes{node="s0"} 2097152
# TYPE tebis_node_cache_evictions_total counter
tebis_node_cache_evictions_total{node="s0"} 3
# TYPE tebis_node_cache_invalidations_total counter
tebis_node_cache_invalidations_total{node="s0"} 11
`

const topTestEvents = `{"events":[
  {"seq":1,"time":"2026-08-09T12:00:00Z","type":"backup_evicted","level":"warn","node":"s0",
   "msg":"backup declared dead","fields":{"region":"3","backup":"s1"}}
],"counts":{"backup_evicted":1}}`

func topTestServer(ready bool) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(topTestMetrics))
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(topTestEvents))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready {
			http.Error(w, `{"ready":false,"failing":{"s0":"replication degraded"}}`,
				http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	})
	return httptest.NewServer(mux)
}

func TestTopRendersOneFrame(t *testing.T) {
	srv := topTestServer(true)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var buf bytes.Buffer
	if err := runTop(&buf, []string{addr}, time.Second, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		addr,             // node row
		"ready",          // readiness column
		"delay",          // admission state decoded from the gauge
		"1.0MiB",         // GC reclaimed bytes
		"97.5%",          // node cache hit ratio
		"2.0MiB",         // node cache resident bytes
		"42",             // replication retries
		"13",             // backup evictions
		"YES",            // degraded gauge
		"backup_evicted", // journal tail
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("-once frame must not clear the screen")
	}
}

func TestTopShowsNotReady(t *testing.T) {
	srv := topTestServer(false)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var buf bytes.Buffer
	if err := runTop(&buf, []string{addr}, time.Second, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NOT-READY") {
		t.Errorf("degraded node not flagged:\n%s", out)
	}
	if !strings.Contains(out, "replication degraded") {
		t.Errorf("readiness reason not surfaced:\n%s", out)
	}
}

func TestTopDownNode(t *testing.T) {
	var buf bytes.Buffer
	if err := runTop(&buf, []string{"127.0.0.1:1"}, time.Second, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DOWN") {
		t.Errorf("unreachable node not flagged:\n%s", buf.String())
	}
}

func TestTopNoNodes(t *testing.T) {
	if err := runTop(&bytes.Buffer{}, nil, time.Second, true); err == nil {
		t.Fatal("want an error with no nodes")
	}
}

func TestParseProm(t *testing.T) {
	samples := parseProm(topTestMetrics)
	found := false
	for _, s := range samples {
		if s.name == "tebis_replication_retries_total" {
			found = true
			if s.labels["node"] != "s0" || s.value != 42 {
				t.Fatalf("bad sample: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("tebis_replication_retries_total not parsed")
	}
	// Quoted commas inside label values must not split.
	s := parseProm(`x{path="a,b",k="v"} 1`)
	if len(s) != 1 || s[0].labels["path"] != "a,b" {
		t.Fatalf("quoted comma mishandled: %+v", s)
	}
}
