package obs

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fixedSource is a test-local source: it reports the families it holds
// and counts how often it is collected.
type fixedSource struct {
	calls atomic.Int64
	fams  []metrics.Family
}

func (f *fixedSource) Collect() []metrics.Family {
	f.calls.Add(1)
	return f.fams
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRegistryNilSafe: a nil registry, a nil source and nil stats
// receivers are all no-ops.
func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Register(nil, &fixedSource{})
	r.Register(nil, nil)
	if got := r.Families(); got != nil {
		t.Fatalf("nil registry listed families %v", got)
	}
	if got := r.ReadSeries(); got != nil {
		t.Fatalf("nil registry read series %v", got)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	live := NewRegistry()
	live.Register(nil, nil)
	for _, src := range []metrics.Source{
		(*metrics.CompactionStats)(nil), (*metrics.FailureStats)(nil),
		(*metrics.ShipStats)(nil), (*metrics.GCStats)(nil), (*metrics.Cycles)(nil),
		(*metrics.StageSet)(nil), (*metrics.Histogram)(nil),
		(*Tracer)(nil), (*EventLog)(nil),
	} {
		live.Register(Labels{"node": "s0"}, src)
	}
	if out := render(t, live); out != "" {
		t.Fatalf("nil sources rendered:\n%s", out)
	}
}

// TestOneCollectPerScrape: every render path collects a source exactly
// once per registration, and a source shared by several registrants
// under the same labels is one registration.
func TestOneCollectPerScrape(t *testing.T) {
	r := NewRegistry()
	src := &fixedSource{fams: []metrics.Family{
		metrics.Counter("tebis_test_a_total", "a", metrics.Value(1)),
		metrics.Gauge("tebis_test_b", "b", metrics.Labeled("k", "v", 2), metrics.Labeled("k", "w", 3)),
	}}
	r.Register(Labels{"node": "s0"}, src)
	r.Register(Labels{"node": "s1"}, src)
	shared := &fixedSource{fams: []metrics.Family{metrics.Counter("tebis_test_shared_total", "s", metrics.Value(7))}}
	for i := 0; i < 3; i++ {
		r.Register(nil, shared)
	}

	out := render(t, r)
	if got := src.calls.Load(); got != 2 {
		t.Fatalf("WritePrometheus collected the source %d times, want 2 (one per registration)", got)
	}
	if got := strings.Count(out, "tebis_test_shared_total 7"); got != 1 || shared.calls.Load() != 1 {
		t.Fatalf("shared source rendered %d times from %d collects, want 1 and 1:\n%s", got, shared.calls.Load(), out)
	}
	if got := strings.Count(out, "# TYPE tebis_test_b gauge"); got != 1 {
		t.Fatalf("family header rendered %d times:\n%s", got, out)
	}
	series := r.ReadSeries()
	if got := src.calls.Load(); got != 4 {
		t.Fatalf("ReadSeries collected the source %d times, want 2", got-2)
	}
	if len(series) != 7 || series[`tebis_test_b{k="w",node="s1"}`] != 3 {
		t.Fatalf("ReadSeries = %v", series)
	}
	fams := r.Families()
	if got := src.calls.Load(); got != 6 {
		t.Fatalf("Families collected the source %d times, want 2", got-4)
	}
	if want := []string{"tebis_test_a_total", "tebis_test_b", "tebis_test_shared_total"}; !slices.Equal(fams, want) {
		t.Fatalf("Families = %v, want %v", fams, want)
	}
	if shared.calls.Load() != 3 {
		t.Fatalf("shared source collected %d times over three scrapes", shared.calls.Load())
	}
}

// TestScrapeIsOneSnapshot: under concurrent RecordShip, registration and
// scraping, every scrape's compression ratio is the quotient of the byte
// totals printed in that same scrape.
func TestScrapeIsOneSnapshot(t *testing.T) {
	r := NewRegistry()
	ship := &metrics.ShipStats{}
	r.Register(nil, ship)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			own := &fixedSource{}
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
					ship.RecordShip(1000+n%977, 100+n%89)
					r.Register(Labels{"node": strconv.Itoa(i)}, own)
				}
			}
		}(i)
	}
	for i := 0; i < 200; i++ {
		s := r.ReadSeries()
		raw, wire := s["tebis_ship_raw_bytes_total"], s["tebis_ship_wire_bytes_total"]
		if raw == 0 {
			continue
		}
		if got := s["tebis_ship_compression_ratio"]; got != raw/wire {
			close(stop)
			t.Fatalf("scrape %d: ratio %v beside raw %v / wire %v = %v", i, got, raw, wire, raw/wire)
		}
	}
	close(stop)
	wg.Wait()
}

// TestExpositionGolden locks the exposition format against
// testdata/metrics.golden: a registry exercising every family kind and
// the stats sources must render byte-identically. Run with
// -update-golden after an intentional format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	node := Labels{"node": "s0"}

	// Test-local families: a labelled counter and gauge, an unlabelled
	// gauge, and a label value that needs escaping.
	r.Register(node, &fixedSource{fams: []metrics.Family{
		metrics.Counter("tebis_test_requests_total", "Requests handled.", metrics.Value(42)),
		metrics.Gauge("tebis_test_queue_depth", "Queued jobs.", metrics.Value(3.5)),
	}})
	r.Register(nil, &fixedSource{fams: []metrics.Family{
		metrics.Gauge("tebis_test_pull_gauge", "Pulled at scrape time.", metrics.Value(1.25)),
		metrics.Counter("tebis_test_escaped_total", "Label escaping.",
			metrics.Labeled("path", `a"b\c`+"\n", 1)),
	}})

	h := metrics.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	r.Register(Labels{"node": "s0", "op": "GET"}, h)

	cs := &metrics.CompactionStats{}
	cs.RecordJob(false)
	cs.RecordJob(true)
	cs.RecordMerge(100 * time.Millisecond)
	cs.RecordBuild(200 * time.Millisecond)
	cs.RecordShip(50*time.Millisecond, true)
	cs.RecordShip(50*time.Millisecond, false)
	cs.StallBegin()
	cs.StallEnd(10 * time.Millisecond)
	r.Register(node, cs)

	fs := &metrics.FailureStats{}
	fs.RecordRetry()
	fs.RecordRetry()
	fs.RecordEviction()
	fs.AddResyncBytes(1 << 20)
	r.Register(node, fs)

	cy := &metrics.Cycles{}
	cy.Charge(metrics.CompCompaction, 12345)
	cy.Charge(metrics.CompSendIndex, 678)
	r.Register(node, cy)

	dev, err := storage.NewMemDevice(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	seg, err := dev.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := dev.WriteAt(dev.Geometry().Pack(seg, 0), buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(dev.Geometry().Pack(seg, 0), buf[:1024]); err != nil {
		t.Fatal(err)
	}
	r.Register(node, storage.Meter{Device: dev})

	// The amplification gauges and the space ledger are the server's to
	// report; their declarations render here over fixed inputs. The
	// ledger must render even when GC never ran.
	st := dev.Stats()
	r.Register(node, &fixedSource{fams: append(
		metrics.AmplificationFamilies(st.BytesRead+st.BytesWritten, 2048, 1024),
		vlog.SpaceReport{
			Segments: []vlog.SegmentSpace{
				{Seg: 2, Total: 4000, Dead: 3000},
				{Seg: 5, Total: 4000, Dead: 1000},
			},
			TailUsed: 500,
			TailDead: 100,
			Live:     4400,
			Dead:     4100,
			Trimmed:  8192,
		}.Families()...)})
	gs := &metrics.GCStats{}
	gs.RecordPass()
	gs.RecordPaused()
	gs.AddRelocation(7, 120, 2, 700)
	gs.AddReclaim(3, 12288)
	r.Register(node, gs)

	ev := NewEventLog(8)
	ev.Record(Event{Type: EvBackupEvicted, Node: "s0"})
	ev.Record(Event{Type: EvSyncDone, Node: "s0"})
	ev.Record(Event{Type: EvSyncDone, Node: "s0"})
	r.Register(node, ev)

	var out bytes.Buffer
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "metrics.golden")
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
		t.Errorf("exposition differs from golden file.\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}

	// Determinism: a second render must be byte-identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

// TestAmplificationZeroDataset: until user bytes arrive the ratios are
// undefined, and an undefined sample is omitted, not exposed as 0.
func TestAmplificationZeroDataset(t *testing.T) {
	r := NewRegistry()
	r.Register(nil, &fixedSource{fams: metrics.AmplificationFamilies(100, 100, 0)})
	out := render(t, r)
	if !strings.Contains(out, "# TYPE tebis_io_amplification gauge") {
		t.Fatalf("family header missing:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			t.Fatalf("zero dataset exposed a ratio: %q", line)
		}
	}
}

// TestDynamicChildren: a family whose children come and go renders them
// after the registration's labels, sorted, and re-enumerates per scrape.
func TestDynamicChildren(t *testing.T) {
	r := NewRegistry()
	src := &fixedSource{fams: []metrics.Family{metrics.Counter("tebis_fixture_ops_total", "per-shard ops")}}
	src.fams[0].Add(`shard="1",kind="read"`, 7)
	src.fams[0].Add(`shard="0",kind="write"`, 3)
	r.Register(Labels{"node": "s0"}, src)
	out := render(t, r)
	for _, want := range []string{
		"# TYPE tebis_fixture_ops_total counter",
		`tebis_fixture_ops_total{node="s0",shard="0",kind="write"} 3`,
		`tebis_fixture_ops_total{node="s0",shard="1",kind="read"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, `shard="0"`) > strings.Index(out, `shard="1"`) {
		t.Fatalf("children not sorted:\n%s", out)
	}
	src.fams[0].Add(`shard="2",kind="read"`, 1)
	if !strings.Contains(render(t, r), `shard="2"`) {
		t.Fatal("new child not exposed on re-scrape")
	}
	series := r.ReadSeries()
	if series[`tebis_fixture_ops_total{node="s0",shard="1",kind="read"}`] != 7 {
		t.Fatalf("ReadSeries keys: %v", series)
	}
}

// TestLayering keeps the stats layer from growing back: metrics is a
// leaf, and obs renders what sources hand it without knowing any module
// that counts.
func TestLayering(t *testing.T) {
	for dir, allowed := range map[string]string{"../metrics": "", ".": "tebis/internal/metrics"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if strings.HasPrefix(path, "tebis/") && path != allowed {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
	}
}

func TestSpanRegionInChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	tr.Node("s0").Record(Span{Cat: "request", Name: "dispatch", Req: 9,
		Region: 5, HasRegion: true, Start: time.Now(), Dur: time.Millisecond})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"region":5`) {
		t.Fatalf("chrome trace missing region arg:\n%s", buf.String())
	}
}
