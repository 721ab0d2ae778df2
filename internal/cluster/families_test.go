package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tebis/internal/admission"
	"tebis/internal/obs"
	"tebis/internal/replica"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// observedCluster boots the deployment tebis-server -replica -metrics
// runs — two servers, Send-Index, admission and a tracer on, masters
// observed — writes through it, and returns it with its registry.
func observedCluster(t *testing.T) (*Cluster, *obs.Registry) {
	t.Helper()
	cfg := testConfig(replica.SendIndex, 1)
	cfg.Servers, cfg.Regions = 2, 2
	// An hour of high water: admission never delays or sheds, so the
	// per-tenant families stay childless whatever the host's speed.
	cfg.Admission = &admission.Config{HighWater: time.Hour}
	cfg.Trace = obs.NewTracer(0)
	cfg.TraceSampleRate = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < 1500; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Observe(reg)
	return c, reg
}

// labelKeys returns the label names of one exposition series line.
func labelKeys(t *testing.T, line string) []string {
	t.Helper()
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return nil
	}
	var keys []string
	for rest := line[open+1:]; rest[0] != '}'; rest = strings.TrimPrefix(rest, ",") {
		eq := strings.IndexByte(rest, '=')
		val, err := strconv.QuotedPrefix(rest[eq+1:])
		if err != nil {
			t.Fatalf("bad label value in %q: %v", line, err)
		}
		keys = append(keys, rest[:eq])
		rest = rest[eq+1+len(val):]
	}
	return keys
}

// TestFamiliesGolden pins the whole exported surface — every family's
// HELP and TYPE line and the label names its series carry, no values —
// against testdata/families.golden, the metric catalogue DESIGN.md
// links to, after a failover, so the families a promotion feeds have
// children. Run with -update-golden after adding a family.
func TestFamiliesGolden(t *testing.T) {
	c, reg := observedCluster(t)
	r0, err := c.Leader().Map().ByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(r0.Primary); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	// Both servers register the shared span ring; it renders once.
	if n := strings.Count(buf.String(), "\ntebis_trace_spans "); n != 1 {
		t.Errorf("shared trace ring rendered %d times, want 1", n)
	}

	var out bytes.Buffer
	var name string
	keys := map[string]bool{}
	flush := func() {
		if name == "" {
			return
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		fmt.Fprintf(&out, "%s{%s}\n", name, strings.Join(sorted, ","))
		keys = map[string]bool{}
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			flush()
			name = ""
			out.WriteString(line + "\n")
		case strings.HasPrefix(line, "# TYPE "):
			flush()
			name = strings.Fields(line)[2]
			out.WriteString(line + "\n")
		default:
			for _, k := range labelKeys(t, line) {
				keys[k] = true
			}
		}
	}
	flush()

	goldenPath := filepath.Join("testdata", "families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("exported families differ from the catalogue.\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}
