package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tebis/internal/admission"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
)

// startPipeServer boots a one-server deployment (in-memory device),
// adjusted by tweak, and wires the serve loop to an in-memory
// connection.
func startPipeServer(t *testing.T, tweak func(*cluster.Config)) (net.Conn, *cluster.Cluster) {
	t.Helper()
	cfg := cluster.Config{
		Servers:     1,
		Regions:     1,
		SegmentSize: 64 << 10,
		LSM:         lsm.Options{L0MaxKeys: 256, NodeSize: 512, MaxLevels: 5},
		Workers:     2,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go serve(server, c)
	t.Cleanup(func() {
		client.Close()
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return client, c
}

// roundTripLines sends one line and reads n reply lines.
func roundTripLines(t *testing.T, conn net.Conn, r *bufio.Reader, line string, n int) []string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply to %q: %v", line, err)
		}
		out = append(out, strings.TrimSpace(reply))
	}
	return out
}

func TestServeProtocol(t *testing.T) {
	conn, _ := startPipeServer(t, nil)
	r := bufio.NewReader(conn)

	if got := roundTripLines(t, conn, r, `PUT "alpha" "value one"`, 1)[0]; got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "alpha"`, 1)[0]; got != `VALUE "value one"` {
		t.Fatalf("GET -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "missing"`, 1)[0]; got != "NOTFOUND" {
		t.Fatalf("GET missing -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `DEL "alpha"`, 1)[0]; got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "alpha"`, 1)[0]; got != "NOTFOUND" {
		t.Fatalf("GET deleted -> %q", got)
	}

	// Unquoted tokens work too.
	if got := roundTripLines(t, conn, r, "PUT plainkey plainval", 1)[0]; got != "OK" {
		t.Fatalf("plain PUT -> %q", got)
	}
	if got := roundTripLines(t, conn, r, "GET plainkey", 1)[0]; got != `VALUE "plainval"` {
		t.Fatalf("plain GET -> %q", got)
	}
}

func TestServeScanAndStats(t *testing.T) {
	conn, _ := startPipeServer(t, nil)
	r := bufio.NewReader(conn)
	for i := 0; i < 10; i++ {
		line := fmt.Sprintf("PUT key%02d val%02d", i, i)
		if got := roundTripLines(t, conn, r, line, 1)[0]; got != "OK" {
			t.Fatalf("PUT -> %q", got)
		}
	}
	out := roundTripLines(t, conn, r, "SCAN key03 4", 5)
	if out[0] != `KV "key03" "val03"` || out[3] != `KV "key06" "val06"` || out[4] != "END" {
		t.Fatalf("SCAN -> %v", out)
	}
	stats := roundTripLines(t, conn, r, "STATS", 1)[0]
	if !strings.HasPrefix(stats, "STATS {") || !strings.Contains(stats, "bytes_written") {
		t.Fatalf("STATS -> %q", stats)
	}
}

func TestServeErrors(t *testing.T) {
	conn, _ := startPipeServer(t, nil)
	r := bufio.NewReader(conn)
	for _, bad := range []string{
		"PUT onlykey",
		"GET",
		"SCAN start notanumber",
		"BOGUS cmd",
	} {
		got := roundTripLines(t, conn, r, bad, 1)[0]
		if !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", bad, got)
		}
	}
	// QUIT closes the connection.
	fmt.Fprintln(conn, "QUIT")
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

// TestReplicaNodesCountTheirOwnCompactions: the -replica deployment
// gives each server its own compaction sink. The Send-Index backup
// compacts nothing, so its counters stay zero while the primary's move.
func TestReplicaNodesCountTheirOwnCompactions(t *testing.T) {
	oldReplica, oldData, oldSeg, oldL0 := *withReplica, *data, *segSize, *l0
	t.Cleanup(func() { *withReplica, *data, *segSize, *l0 = oldReplica, oldData, oldSeg, oldL0 })
	*withReplica, *data, *segSize, *l0 = true, filepath.Join(t.TempDir(), "tebis.img"), 64<<10, 256
	c, err := cluster.New(deployment(obs.NewEventLog(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 1000; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("key%06d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Observe(reg)
	series := reg.ReadSeries()
	jobs := func(node string) float64 {
		return series[`tebis_compaction_jobs_total{kind="merge",node="`+node+`"}`] +
			series[`tebis_compaction_jobs_total{kind="move",node="`+node+`"}`]
	}
	primary, backup := jobs("s0"), jobs("s1")
	if primary == 0 || backup != 0 {
		t.Fatalf("compaction jobs: primary s0 = %v (want > 0), Send-Index backup s1 = %v (want 0)", primary, backup)
	}
}

// TestServeStageAttribution: with every command sampled, the serving
// stack decomposes each PUT into dispatch and apply stage records under
// the default tenant.
func TestServeStageAttribution(t *testing.T) {
	conn, c := startPipeServer(t, func(cfg *cluster.Config) {
		cfg.Trace = obs.NewTracer(0)
		cfg.TraceSampleRate = 1
	})
	r := bufio.NewReader(conn)
	for i := 0; i < 4; i++ {
		line := fmt.Sprintf("PUT key%d val%d", i, i)
		if got := roundTripLines(t, conn, r, line, 1)[0]; got != "OK" {
			t.Fatalf("PUT -> %q", got)
		}
	}
	seen := map[string]uint64{}
	for _, snap := range c.Stages().Snapshot() {
		if snap.Tenant != "t0" {
			t.Fatalf("stage %s under tenant %q, want t0", snap.Stage, snap.Tenant)
		}
		seen[snap.Stage] = snap.Count
	}
	if seen[metrics.StageDispatch] != 4 || seen[metrics.StageApply] != 4 {
		t.Fatalf("stage counts = %v, want 4 dispatch and 4 apply", seen)
	}
}

// TestServeAdmissionShedsMutations: with the controller escalated to
// shedding, mutations answer overloaded while reads still serve.
func TestServeAdmissionShedsMutations(t *testing.T) {
	conn, c := startPipeServer(t, func(cfg *cluster.Config) {
		cfg.Admission = &admission.Config{MaxThreshold: 1, HighWater: time.Nanosecond, Window: 1}
	})
	r := bufio.NewReader(conn)
	if got := roundTripLines(t, conn, r, "PUT survivor val", 1)[0]; got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	// Drive the state machine to shed: the threshold is already at its
	// floor, so every high-wait window escalates one step.
	ctrl := c.Nodes[primaryNode].Server.Admission()
	for i := 0; i < 3 && ctrl.State() != admission.StateShed; i++ {
		ctrl.Observe(time.Millisecond)
	}
	if st := ctrl.State(); st != admission.StateShed {
		t.Fatalf("controller state = %v, want shed", st)
	}
	got := roundTripLines(t, conn, r, "PUT blocked val", 1)[0]
	if !strings.HasPrefix(got, "ERR overloaded") {
		t.Fatalf("shed PUT -> %q, want ERR overloaded", got)
	}
	if got := roundTripLines(t, conn, r, "GET survivor", 1)[0]; got != `VALUE "val"` {
		t.Fatalf("GET under shed -> %q, want the acked value (reads are never refused)", got)
	}
	if got := roundTripLines(t, conn, r, "GET blocked", 1)[0]; got != "NOTFOUND" {
		t.Fatalf("GET of the shed key -> %q, want NOTFOUND (a shed write applies nothing)", got)
	}
	if n := ctrl.Snapshot().Shed["t0"]; n == 0 {
		t.Fatal("shed counter still zero")
	}
}

// TestFlagCountOnlyGoesDown pins the server's flags: each is a knob an
// operator must read about and a test or experiment must drive, so the
// count may only fall. A PR that deletes a flag lowers the bound here.
func TestFlagCountOnlyGoesDown(t *testing.T) {
	const max = 16
	var names []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			names = append(names, f.Name)
		}
	})
	if len(names) > max {
		t.Errorf("tebis-server has %d flags, more than %d: %v", len(names), max, names)
	} else if len(names) < max {
		t.Logf("tebis-server has %d flags: lower the bound from %d", len(names), max)
	}
}
