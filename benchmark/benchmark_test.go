package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"tebis/internal/ycsb"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{5, 0, false}, {19, 0, false}, {20, 50, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {1500000, 99.9, true}} {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLowersToWhatTheSampleSupports(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, used := percentile(sorted, 50); v != 500 || used != 50 {
		t.Errorf("p50 = %d (used %v), want 500 (50)", v, used)
	}
	if v, used := percentile(sorted, 99); v != 990 || used != 99 {
		t.Errorf("p99 = %d (used %v), want 990 (99)", v, used)
	}
	// 1000 samples leave one beyond p99.9: the picker falls back to p99.
	if v, used := percentile(sorted, 99.9); v != 990 || used != 99 {
		t.Errorf("p99.9 of 1000 = %d (used %v), want 990 (99)", v, used)
	}
	if v, used := percentile(nil, 99); v != 0 || used != 0 {
		t.Errorf("empty sample = %d (used %v), want 0 (0)", v, used)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWindowsCutThePhaseByCompletionTime(t *testing.T) {
	// Client 0 completed 600 ops in window 0, 5 in window 1 (a stall), 700
	// in window 2 and 1 after its last cut; client 1 completed 400, 0 and
	// 800, and then had a fourth window, which client 0 never finished.
	lats := func(n int, ns int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = ns
		}
		return v
	}
	res := &clusterResult{}
	res.logs[0] = clientLog{lat: slices.Concat(lats(600, 10), lats(5, 900), lats(700, 30), lats(1, 1000)), cuts: []int{600, 605, 1305}}
	res.logs[1] = clientLog{lat: slices.Concat(lats(400, 20), lats(800, 40), lats(50, 2000)), cuts: []int{400, 400, 1200, 1250}}
	got := res.windows()
	want := []windowStat{{ops: 1000, kops: 2, p50: 10, p99: 20}, {ops: 1500, kops: 3, p50: 40, p99: 40}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %+v, want %+v (the stalled window and the tail left out)", got, want)
	}

	// A phase without a full window is one window.
	short := &clusterResult{wall: 3 * time.Millisecond}
	short.logs[0] = clientLog{kinds: make([]ycsb.OpKind, 2), lat: []int64{5, 7}}
	short.logs[1] = clientLog{kinds: make([]ycsb.OpKind, 1), lat: []int64{6}}
	if got := short.windows(); len(got) != 1 || got[0].ops != 3 || got[0].p50 != 6 || got[0].kops != 1 {
		t.Errorf("short phase: windows = %+v, want one window of 3 ops, 1 kops/s, p50 6", got)
	}
}

func TestQuietMeanReadsTheThreeBestWindows(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	if got := quietMean(v, false); got != 20 {
		t.Errorf("lower is better: quietMean = %v, want 20, the mean of 10, 20, 30", got)
	}
	if got := quietMean(v, true); got != 40 {
		t.Errorf("higher is better: quietMean = %v, want 40, the mean of 50, 40, 30", got)
	}
	if got := quietMean([]float64{7, 9}, false); got != 8 {
		t.Errorf("two windows: quietMean = %v, want 8", got)
	}
	if got := quietMean(nil, true); got != 0 {
		t.Errorf("no window: quietMean = %v, want 0", got)
	}
}

func TestSeedFixesTheOpStream(t *testing.T) {
	for _, w := range workloads {
		sz := smokeSizes(w)
		a := newStream(w, sz, 7).hash(2000)
		if b := newStream(w, sz, 7).hash(2000); a != b {
			t.Errorf("%s: same seed, different streams (%x, %x)", w.Name, a, b)
		}
		if w.Records == 0 {
			continue // a load inserts records 0..n in order whatever the seed
		}
		if b := newStream(w, sz, 8).hash(2000); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's charset", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's charset", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []jsonWorkload   `json:"workloads"`
	EndToEnd   []jsonEndToEnd   `json:"end_to_end"`
	PerLayer   []jsonLayerEntry `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func catalogueJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerEntry{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesCatalogue keeps the committed BENCHMARK.json
// and the catalogue the program reports from in step; run with -update
// after editing catalogue.go.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := catalogueJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the catalogue differ; run go test ./benchmark -run BenchmarkJSON -update")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the contract's 64 KiB", len(data))
	}
}

func TestReadmeExplainsEveryWorkloadAndMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(readme, "`"+d.Name+"`") {
				t.Errorf("README.md does not mention metric %s", d.Name)
			}
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	recs := []runRecord{
		{Workload: "load_sd", Seed: 1, Seconds: 15, Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"throughput_kops": {Value: 70.5, Unit: "kops/s", Samples: 10}, "p99_us": {Value: 55, Unit: "us", Samples: 10}}},
		{Workload: "load_sd", Seed: 2, Seconds: 15, Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"throughput_kops": {Value: 69.5, Unit: "kops/s", Samples: 10}, "p99_us": {Value: 57, Unit: "us", Samples: 10}}},
		{Workload: "load_sd", Seed: 1, Seconds: 15, Trace: true, Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"lsm.put_ns": {Value: 900, Unit: "ns", Samples: 10}}},
	}
	for _, r := range recs {
		if err := appendRun(path, r); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rf.Runs, recs) {
		t.Errorf("runs did not survive the round trip:\n got %+v\nwant %+v", rf.Runs, recs)
	}
	if rf.Environment != currentEnvironment() || rf.Environment.NProc == 0 || rf.Environment.GoVersion == "" {
		t.Errorf("environment block = %+v", rf.Environment)
	}
	// Two untraced runs, two metrics: the traced run stays out of the summary.
	if len(rf.Summary) != 2 || rf.Summary[0].Metric != "throughput_kops" || rf.Summary[0].Runs != 2 || rf.Summary[0].Median != 70 {
		t.Errorf("summary = %+v", rf.Summary)
	}
}

func TestJudge(t *testing.T) {
	row := func(better string, median, spread float64) summaryRow {
		return summaryRow{Better: better, Median: median, Spread: spread, Bound: 0.10}
	}
	for _, c := range []struct {
		name         string
		base, change summaryRow
		want         string
	}{
		{"lower is better, 20% up", row("lower", 100, 0.01), row("lower", 120, 0.01), verdictWorse},
		{"lower is better, 20% down", row("lower", 100, 0.01), row("lower", 80, 0.01), verdictBetter},
		{"higher is better, 20% down", row("higher", 100, 0.01), row("higher", 80, 0.01), verdictWorse},
		{"higher is better, 20% up", row("higher", 100, 0.01), row("higher", 120, 0.01), verdictBetter},
		{"inside the bound, steady", row("lower", 100, 0.02), row("lower", 105, 0.02), verdictWithin},
		{"inside the bound, noisy base", row("lower", 100, 0.30), row("lower", 105, 0.02), verdictUnresolved},
		{"inside the bound, noisy change", row("lower", 100, 0.02), row("lower", 95, 0.30), verdictUnresolved},
		{"beyond the bound even if noisy", row("lower", 100, 0.30), row("lower", 150, 0.30), verdictWorse},
	} {
		if _, got := judge(c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, kops float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 2; seed++ {
			err := appendRun(path, runRecord{Workload: "read_zipf", Seed: seed, Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"throughput_kops": {Value: kops + float64(seed)/10, Unit: "kops/s"}}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("base.json", 80), write("same.json", 80.5), write("slow.json", 40)
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, &errOut); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || !strings.Contains(out.String(), "read_zipf") {
		t.Errorf("compare output lacks the row:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, &errOut); code != 1 {
		t.Errorf("half the throughput: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("compare output lacks the verdict:\n%s", out.String())
	}
}

// smokeSizes is w at 1% of the full scale.
func smokeSizes(w workloadDef) sizes {
	sz := sizes{
		records:       w.Records / 100,
		ops:           w.OpsPerSecond * defaultSeconds / 100,
		ladderOps:     ladderOps / 100,
		failoverReads: failoverReads / 100,
	}
	if w.Records == 0 {
		// A load has to overflow one 4096-key L0 per region before a
		// Build-Index backup merges into a level it must read back.
		sz.ops, sz.ladderOps = 25_000, 25_000
	}
	return sz
}

// TestSmoke runs every workload and its ladder at 1% scale: every
// metric of the catalogue is reported, no op fails, the span file is
// written, and on load_sd the ladder shows the paper's trade.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			sz := smokeSizes(w)
			m, err := runUntraced(w, sz, 1, defaultSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if m.Failed != 0 || m.Attempted < int64(sz.ops)-1 {
				t.Errorf("untraced: %d of %d ops failed (want %d attempted)", m.Failed, m.Attempted, sz.ops)
			}
			for _, d := range endToEnd {
				if mv, ok := m.Metrics[d.Name]; !ok || mv.Value <= 0 || mv.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v (present %v); it must never be 0", d.Name, mv, ok)
				}
			}
			if len(m.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, the catalogue has %d", len(m.Metrics), len(endToEnd))
			}

			dir := t.TempDir()
			m, err = runTraced(w, sz, 1, defaultSeconds, dir)
			if err != nil {
				t.Fatal(err)
			}
			if m.Failed != 0 {
				t.Errorf("traced: %d of %d ops failed", m.Failed, m.Attempted)
			}
			if len(m.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, the catalogue has %d", len(m.Metrics), len(perLayer))
			}
			for _, name := range []string{"client.op_ns", "replica.op_ns", "wire.encode_ns", "rdma.write_ns", "btree.build_ns_per_key", "process.cpu_us_per_op"} {
				if m.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Metrics[name].Value)
				}
			}
			checkSpanFile(t, filepath.Join(dir, "trace-"+w.Name+".jsonl"))

			if w.Name != "load_sd" {
				return
			}
			v := func(name string) float64 { return m.Metrics[name].Value }
			if v("master.failover_ms") <= 0 {
				t.Errorf("master.failover_ms = %v after a crash", v("master.failover_ms"))
			}
			if !(v("replica.backup_kcycles_per_op") < v("replica.buildindex_backup_kcycles_per_op")) {
				t.Errorf("Send-Index backup spends %v kcycles/op, Build-Index %v: the paper's CPU saving is gone",
					v("replica.backup_kcycles_per_op"), v("replica.buildindex_backup_kcycles_per_op"))
			}
			if !(v("replica.backup_dev_read_bytes_per_op") < v("replica.buildindex_backup_dev_read_bytes_per_op")) {
				t.Errorf("Send-Index backup reads %v B/op, Build-Index %v: the paper's read-I/O saving is gone",
					v("replica.backup_dev_read_bytes_per_op"), v("replica.buildindex_backup_dev_read_bytes_per_op"))
			}
			if v("replica.net_bytes_per_op") < v("replica.buildindex_net_bytes_per_op") {
				t.Errorf("Send-Index moves %v net B/op, Build-Index %v: shipping the index cannot cost less network",
					v("replica.net_bytes_per_op"), v("replica.buildindex_net_bytes_per_op"))
			}
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s line %d: %v", path, lines+1, err)
		}
		if rec.EndNS < rec.StartNS || rec.Name == "" {
			t.Fatalf("%s line %d: bad span %+v", path, lines+1, rec)
		}
		names[rec.Name] = true
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || lines > maxSpansWritten {
		t.Errorf("%s holds %d spans, want 1..%d", path, lines, maxSpansWritten)
	}
	if !names["wire.encode"] || !(names["client.put"] || names["client.get"] || names["client.scan"]) {
		t.Errorf("%s lacks client or wire spans: %v", path, names)
	}
}
