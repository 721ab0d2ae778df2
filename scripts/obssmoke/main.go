// Command obssmoke is the end-to-end observability gate run by
// `make obs-smoke` and scripts/check.sh. It builds tebis-server, boots
// it with the metrics endpoint and an in-process Send-Index backup,
// drives enough PUT traffic to trigger compactions, then asserts that:
//
//   - /metrics serves Prometheus text exposition with every required
//     family (compaction stages, failure state, op latency quantiles,
//     I/O and network amplification, per-stage tail attribution, and
//     the admission-control state machine);
//   - /debug/trace exports Chrome trace-event JSON containing the full
//     paper pipeline: merge, build, ship, and rewrite spans;
//   - /debug/vars serves valid expvar JSON;
//   - /metrics/history serves sampled time-series JSON with non-zero
//     ticks, and `series,t_ms,v` rows with ?format=csv;
//   - /debug/pprof/ serves the profile index and unknown paths 404;
//   - every endpoint the index at / names was fetched by one of the
//     checks above, so nothing is served that no gate exercises.
//
// It exits 0 on success and 1 with a diagnostic on any failure.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// requiredFamilies is the minimum metric surface the acceptance
// criteria demand; the live server exposes ~20 families in total.
var requiredFamilies = []string{
	"tebis_compaction_jobs_total",
	"tebis_compaction_stage_seconds_total",
	"tebis_degraded",
	"tebis_op_latency_seconds",
	"tebis_io_amplification",
	"tebis_net_amplification",
	"tebis_device_write_bytes_total",
	"tebis_net_tx_bytes_total",
	"tebis_trace_dropped_spans_total",
	"tebis_trace_spans",
	// Tail attribution (DESIGN.md "Observability"): stage quantiles with
	// exemplars, fed by the serve loop's command sampling, plus the
	// signal-driven admission controller's state machine.
	"tebis_op_stage_seconds",
	"tebis_op_stage_samples_total",
	"tebis_admission_state",
	"tebis_admission_threshold",
	"tebis_admission_queue_wait_seconds",
	"tebis_admission_threshold_adjustments_total",
	// Replication-plane health (DESIGN.md "Observability"): per-backup
	// lag/staleness from the primary's lag tracker and the structured event
	// journal's per-type counters.
	"tebis_replica_lag_ops",
	"tebis_replica_lag_bytes",
	"tebis_replica_backlog",
	"tebis_replica_staleness_seconds",
	"tebis_replica_ack_seconds",
	"tebis_events_total",
}

var requiredSpans = []string{"merge", "build", "ship", "rewrite"}

// The server's startup lines are structured key=value records
// (msg=... url=... / msg=listening addr=...); pull the two listen
// addresses out of their fields.
var (
	metricsLine = regexp.MustCompile(`msg="metrics endpoint up" url=http://([^/ ]+)/metrics`)
	listenLine  = regexp.MustCompile(`msg=listening addr=([^ ]+) device=`)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obs-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obs-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "tebis-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tebis-server")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build tebis-server: %w", err)
	}

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-replica",
		"-l0", "512",
		"-segment", "65536",
		"-data", filepath.Join(tmp, "tebis.img"))
	stderr, err := srv.StderrPipe()
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start tebis-server: %w", err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// The server logs its actual listen addresses (we asked for port 0).
	metricsAddr, dataAddr, err := parseAddrs(stderr)
	if err != nil {
		return err
	}
	fmt.Printf("obs-smoke: server up (data %s, metrics %s)\n", dataAddr, metricsAddr)

	// Drive enough writes through L0=512 to force several compactions
	// through the full merge → build → ship → rewrite pipeline.
	if err := drivePuts(dataAddr, 1500); err != nil {
		return err
	}

	if err := checkMetrics(metricsAddr); err != nil {
		return err
	}
	if err := checkTrace(metricsAddr); err != nil {
		return err
	}
	if err := checkVars(metricsAddr); err != nil {
		return err
	}
	if err := checkHistory(metricsAddr); err != nil {
		return err
	}
	if err := checkEvents(metricsAddr); err != nil {
		return err
	}
	if err := checkHealth(metricsAddr); err != nil {
		return err
	}
	if err := checkMuxPaths(metricsAddr); err != nil {
		return err
	}
	return checkIndexCovered(metricsAddr)
}

// parseAddrs reads the server's startup log lines until both listen
// addresses appear.
func parseAddrs(stderr io.Reader) (metricsAddr, dataAddr string, err error) {
	deadline := time.After(15 * time.Second)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for metricsAddr == "" || dataAddr == "" {
		select {
		case <-deadline:
			return "", "", fmt.Errorf("timed out waiting for server startup logs")
		case line, ok := <-lines:
			if !ok {
				return "", "", fmt.Errorf("server exited before logging its addresses")
			}
			if m := metricsLine.FindStringSubmatch(line); m != nil {
				metricsAddr = m[1]
			}
			if m := listenLine.FindStringSubmatch(line); m != nil {
				dataAddr = m[1]
			}
		}
	}
	// Keep draining so the server never blocks on a full stderr pipe.
	go func() {
		for range lines {
		}
	}()
	return metricsAddr, dataAddr, nil
}

// drivePuts loads n keys over the line protocol and checks every reply.
func drivePuts(addr string, n int) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial data port: %w", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "PUT smoke%06d value-%06d-abcdefghijklmnopqrstuvwxyz\n", i, i)
		if err := w.Flush(); err != nil {
			return err
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("PUT %d: %w", i, err)
		}
		if strings.TrimSpace(reply) != "OK" {
			return fmt.Errorf("PUT %d -> %q", i, strings.TrimSpace(reply))
		}
	}
	return nil
}

// fetched holds the path (query stripped) of every GET that answered
// 200, for checkIndexCovered.
var fetched = map[string]bool{}

func get(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", path, resp.Status)
	}
	fetched[strings.SplitN(path, "?", 2)[0]] = true
	return io.ReadAll(resp.Body)
}

// checkMetrics polls /metrics until every required family is present
// with the compaction counters non-zero (compactions are asynchronous).
func checkMetrics(addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		body, err := get(addr, "/metrics")
		if err != nil {
			lastErr = err
		} else {
			lastErr = metricsComplete(string(body))
			if lastErr == nil {
				fmt.Println("obs-smoke: /metrics serves all required families")
				return nil
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("/metrics never became complete: %w", lastErr)
}

func metricsComplete(body string) error {
	for _, fam := range requiredFamilies {
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			return fmt.Errorf("family %s missing", fam)
		}
	}
	// The serve loop samples commands into the stage set, so after 1500
	// puts at the default 1/128 rate the dispatch series must have
	// children, not just a family header.
	if !strings.Contains(body, `tebis_op_stage_seconds{stage="dispatch"`) {
		return fmt.Errorf("tebis_op_stage_seconds has no dispatch children")
	}
	// With the in-process backup attached, every replicated append feeds
	// the lag tracker, so the per-backup children must exist.
	if !strings.Contains(body, "tebis_replica_lag_ops{") {
		return fmt.Errorf("tebis_replica_lag_ops has no per-backup children")
	}
	// At least one compaction must have completed end to end.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "tebis_compaction_jobs_total") &&
			!strings.HasSuffix(line, " 0") {
			return nil
		}
	}
	return fmt.Errorf("tebis_compaction_jobs_total still zero")
}

// checkTrace asserts /debug/trace is a loadable Chrome trace containing
// the paper's four pipeline stages.
func checkTrace(addr string) error {
	body, err := get(addr, "/debug/trace")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/debug/trace is not valid JSON: %w", err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for _, name := range requiredSpans {
		if !seen[name] {
			return fmt.Errorf("/debug/trace has no %q spans (saw %v)", name, seen)
		}
	}
	fmt.Println("obs-smoke: /debug/trace exports the full pipeline (merge/build/ship/rewrite)")
	return nil
}

// checkHistory polls /metrics/history until the background sampler has
// ticked and buffered series (it runs on a wall-clock interval).
func checkHistory(addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		body, err := get(addr, "/metrics/history")
		if err != nil {
			lastErr = err
		} else {
			var doc struct {
				Ticks  uint64                    `json:"ticks"`
				Series map[string]map[string]any `json:"series"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				return fmt.Errorf("/metrics/history is not valid JSON: %w", err)
			}
			if doc.Ticks > 0 && len(doc.Series) > 0 {
				fmt.Printf("obs-smoke: /metrics/history buffered %d series over %d ticks\n",
					len(doc.Series), doc.Ticks)
				return checkHistoryCSV(addr)
			}
			lastErr = fmt.Errorf("history empty: ticks=%d series=%d", doc.Ticks, len(doc.Series))
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("/metrics/history never filled: %w", lastErr)
}

// checkHistoryCSV asserts the ?format=csv export serves the same
// buffer as `series,t_ms,v` rows.
func checkHistoryCSV(addr string) error {
	body, err := get(addr, "/metrics/history?format=csv")
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 || lines[0] != "series,t_ms,v" {
		return fmt.Errorf("/metrics/history?format=csv: want a series,t_ms,v header plus rows, got %d lines (first %q)",
			len(lines), lines[0])
	}
	for _, line := range lines[1:min(len(lines), 3)] {
		if len(strings.SplitN(line, ",", 3)) != 3 {
			return fmt.Errorf("/metrics/history?format=csv: malformed row %q", line)
		}
	}
	fmt.Printf("obs-smoke: /metrics/history?format=csv exports %d rows\n", len(lines)-1)
	return nil
}

// checkEvents asserts /debug/events serves the structured journal as
// JSON and that the boot transition was recorded.
func checkEvents(addr string) error {
	body, err := get(addr, "/debug/events")
	if err != nil {
		return err
	}
	var doc struct {
		Events []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"events"`
		Counts map[string]uint64 `json:"counts"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/debug/events is not valid JSON: %w", err)
	}
	if len(doc.Events) == 0 {
		return fmt.Errorf("/debug/events is empty after startup")
	}
	if doc.Counts["server_started"] == 0 {
		return fmt.Errorf("/debug/events did not record server_started (counts %v)", doc.Counts)
	}
	fmt.Printf("obs-smoke: /debug/events journaled %d events (%d types)\n",
		len(doc.Events), len(doc.Counts))
	return nil
}

// checkHealth asserts /healthz reports live and /readyz reports ready —
// the in-process backup is attached and healthy, so readiness must hold.
func checkHealth(addr string) error {
	if _, err := get(addr, "/healthz"); err != nil {
		return err
	}
	if _, err := get(addr, "/readyz"); err != nil {
		return fmt.Errorf("healthy server not ready: %w", err)
	}
	fmt.Println("obs-smoke: /healthz live, /readyz ready")
	return nil
}

// checkMuxPaths asserts the pprof index is mounted and unknown paths
// 404 instead of silently serving something.
func checkMuxPaths(addr string) error {
	body, err := get(addr, "/debug/pprof/")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "goroutine") {
		return fmt.Errorf("/debug/pprof/ does not list profiles")
	}
	resp, err := http.Get("http://" + addr + "/definitely-not-a-route")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("unknown path served status %s, want 404", resp.Status)
	}
	fmt.Println("obs-smoke: /debug/pprof/ mounted, unknown paths 404")
	return nil
}

// checkIndexCovered fetches the endpoint index at / and fails if it
// names a path none of the checks above fetched: an endpoint is kept
// only while a gate exercises it.
func checkIndexCovered(addr string) error {
	body, err := get(addr, "/")
	if err != nil {
		return err
	}
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "/") {
			continue
		}
		if !fetched[f[0]] {
			return fmt.Errorf("the index at / names %s, which no check fetches", f[0])
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("the index at / names no endpoint:\n%s", body)
	}
	fmt.Printf("obs-smoke: every endpoint the index names (%d) is checked\n", n)
	return nil
}

// checkVars asserts /debug/vars serves valid expvar JSON.
func checkVars(addr string) error {
	body, err := get(addr, "/debug/vars")
	if err != nil {
		return err
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		return fmt.Errorf("/debug/vars is not valid JSON: %w", err)
	}
	fmt.Println("obs-smoke: /debug/vars is valid expvar JSON")
	return nil
}
