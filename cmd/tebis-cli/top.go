package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tebis-top: a refreshing cluster health view assembled from each
// node's observability endpoint. Every interval it scrapes /metrics,
// /debug/events, and /readyz on every node and renders one table of
// node state (readiness, admission state, replication health, GC
// progress, index node cache) followed by the most recent journal
// events. Replication is synchronous — a put is acked only once every
// backup holds its record — so replication health is what that
// produces: retries against a stalled backup, evictions of a dead one,
// and whether the node runs degraded.

// sample is one parsed Prometheus exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text exposition. It handles exactly what
// the tebis registry emits — `name{k="v",...} value` and bare
// `name value` lines — and skips comments and anything malformed.
func parseProm(text string) []sample {
	var out []sample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		labels := map[string]string{}
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			for _, kv := range splitLabels(line[i+1 : j]) {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					continue
				}
				v, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					v = strings.Trim(kv[eq+1:], `"`)
				}
				labels[kv[:eq]] = v
			}
			rest = strings.TrimSpace(line[j+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
			rest = strings.TrimSpace(line[i+1:])
		} else {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		out = append(out, sample{name: name, labels: labels, value: v})
	}
	return out
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// topEvent mirrors the /debug/events JSON entries.
type topEvent struct {
	Seq    uint64            `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Level  string            `json:"level"`
	Node   string            `json:"node"`
	Msg    string            `json:"msg"`
	Fields map[string]string `json:"fields"`
}

// nodeScrape is everything tebis-top pulls from one node per tick.
type nodeScrape struct {
	addr     string
	err      error
	ready    bool
	readyWhy string
	samples  []sample
	events   []topEvent
}

func scrapeNode(client *http.Client, addr string) nodeScrape {
	ns := nodeScrape{addr: addr}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		ns.err = err
		return ns
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ns.samples = parseProm(string(body))

	if resp, err := client.Get("http://" + addr + "/readyz"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ns.ready = resp.StatusCode == http.StatusOK
		if !ns.ready {
			ns.readyWhy = strings.TrimSpace(string(body))
		}
	}
	if resp, err := client.Get("http://" + addr + "/debug/events"); err == nil {
		var doc struct {
			Events []topEvent `json:"events"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		ns.events = doc.Events
	}
	return ns
}

// runTop drives the watch loop: scrape every node, render, sleep,
// repeat. With once set it renders a single frame without clearing the
// screen — the scriptable (and testable) mode.
func runTop(out io.Writer, nodes []string, interval time.Duration, once bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("tebis-top: no nodes (use -nodes host:port,host:port)")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		scrapes := make([]nodeScrape, len(nodes))
		for i, n := range nodes {
			scrapes[i] = scrapeNode(client, n)
		}
		if !once {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderTop(out, scrapes)
		if once {
			return nil
		}
		time.Sleep(interval)
	}
}

func renderTop(out io.Writer, scrapes []nodeScrape) {
	fmt.Fprintf(out, "tebis-top  %s  %d node(s)\n\n",
		time.Now().Format("15:04:05"), len(scrapes))

	// Node table: readiness, admission state, replication health, GC
	// progress, node cache.
	fmt.Fprintf(out, "%-22s %-10s %-10s %8s %9s %8s %12s %14s %8s %10s %10s %10s\n",
		"NODE", "READY", "ADMISSION", "RETRIES", "EVICTIONS", "DEGRADED",
		"GC-FREED", "GC-RECLAIMED", "IDX-HIT", "IDX-CACHE", "IDX-EVICT", "IDX-INVAL")
	for _, ns := range scrapes {
		if ns.err != nil {
			fmt.Fprintf(out, "%-22s %-10s %s\n", ns.addr, "DOWN", ns.err)
			continue
		}
		admission := "-"
		degraded := "no"
		var retries, backupEvictions float64
		var gcFreed, gcBytes, hits, misses, cacheBytes, evictions, invalidations float64
		for _, s := range ns.samples {
			switch s.name {
			case "tebis_admission_state":
				admission = admissionStateName(s.value)
			case "tebis_replication_retries_total":
				retries += s.value
			case "tebis_backup_evictions_total":
				backupEvictions += s.value
			case "tebis_degraded":
				if s.value != 0 {
					degraded = "YES"
				}
			case "tebis_vlog_gc_segments_freed_total":
				gcFreed += s.value
			case "tebis_vlog_gc_reclaimed_bytes_total":
				gcBytes += s.value
			case "tebis_node_cache_hits_total":
				hits += s.value
			case "tebis_node_cache_misses_total":
				misses += s.value
			case "tebis_node_cache_bytes":
				cacheBytes += s.value
			case "tebis_node_cache_evictions_total":
				evictions += s.value
			case "tebis_node_cache_invalidations_total":
				invalidations += s.value
			}
		}
		hitRatio := "-"
		if hits+misses > 0 {
			hitRatio = fmt.Sprintf("%.1f%%", 100*hits/(hits+misses))
		}
		ready := "ready"
		if !ns.ready {
			ready = "NOT-READY"
		}
		fmt.Fprintf(out, "%-22s %-10s %-10s %8.0f %9.0f %8s %12.0f %14s %8s %10s %10.0f %10.0f\n",
			ns.addr, ready, admission, retries, backupEvictions, degraded, gcFreed, fmtBytes(gcBytes),
			hitRatio, fmtBytes(cacheBytes), evictions, invalidations)
		if ns.readyWhy != "" {
			fmt.Fprintf(out, "  └─ %s\n", ns.readyWhy)
		}
	}

	// Most recent journal events across all nodes, newest last.
	var events []topEvent
	for _, ns := range scrapes {
		events = append(events, ns.events...)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Time.Equal(events[j].Time) {
			return events[i].Seq < events[j].Seq
		}
		return events[i].Time.Before(events[j].Time)
	})
	if len(events) > 10 {
		events = events[len(events)-10:]
	}
	fmt.Fprintln(out, "\nRECENT EVENTS")
	for _, e := range events {
		var fields []string
		for k, v := range e.Fields {
			fields = append(fields, k+"="+v)
		}
		sort.Strings(fields)
		fmt.Fprintf(out, "%s [%s] %-18s node=%s %s\n",
			e.Time.Format("15:04:05.000"), e.Level, e.Type, e.Node,
			strings.Join(fields, " "))
	}
	if len(events) == 0 {
		fmt.Fprintln(out, "(none)")
	}
}

// admissionStateName decodes the tebis_admission_state gauge.
func admissionStateName(v float64) string {
	switch int(v) {
	case 1:
		return "delay"
	case 2:
		return "shed"
	default:
		return "normal"
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
