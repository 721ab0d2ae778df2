package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tebis/internal/metrics"
	"tebis/internal/ycsb"
)

// tinyScale keeps unit tests fast while still producing compactions.
var tinyScale = Scale{Records: 6000, Ops: 3000, L0MaxKeys: 256}

func TestRunLoadAProducesMetrics(t *testing.T) {
	res, err := Run(params(SendIndex, ycsb.LoadA, ycsb.MixSD, tinyScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != tinyScale.Records {
		t.Fatalf("ops = %d, want %d", res.Ops, tinyScale.Records)
	}
	if res.KOpsPerSec <= 0 || res.KCyclesPerOp <= 0 {
		t.Fatalf("throughput/efficiency empty: %+v", res)
	}
	if res.IOAmp <= 0 || res.NetAmp <= 0 {
		t.Fatalf("amplification empty: %+v", res)
	}
	if res.DatasetBytes == 0 {
		t.Fatal("dataset bytes empty")
	}
	if res.Latency[ycsb.OpInsert].Count() != res.Ops {
		t.Fatalf("latency samples %d", res.Latency[ycsb.OpInsert].Count())
	}
	if res.Breakdown[metrics.CompSendIndex] == 0 || res.Breakdown[metrics.CompRewriteIndex] == 0 {
		t.Fatalf("Send-Index components missing: %v", res.Breakdown)
	}
}

func TestRunPhaseRunA(t *testing.T) {
	res, err := Run(params(BuildIndex, ycsb.RunA, ycsb.MixS, tinyScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != tinyScale.Ops {
		t.Fatalf("ops = %d, want %d", res.Ops, tinyScale.Ops)
	}
	if res.Latency[ycsb.OpRead].Count() == 0 || res.Latency[ycsb.OpUpdate].Count() == 0 {
		t.Fatal("Run A latency histograms empty")
	}
	if res.Breakdown[metrics.CompSendIndex] != 0 || res.Breakdown[metrics.CompRewriteIndex] != 0 {
		t.Fatalf("Build-Index charged shipping: %v", res.Breakdown)
	}
}

func TestPaperShapeHolds(t *testing.T) {
	// The headline comparison at a small scale: Send-Index must beat
	// Build-Index on efficiency and I/O amplification and lose on
	// network amplification (Load A, SD, two-way). Columnar leaves made
	// the index — the one I/O the schemes differ in — a third smaller:
	// at tinyScale's 6 000 records the I/O gap is 3.6 %, which one extra
	// job under another freeze interleaving can take from Send-Index;
	// at 12 000 it is 3.7–5.7 % with Send-Index's own I/O steady.
	sc := tinyScale
	sc.Records = 12000
	send, err := Run(params(SendIndex, ycsb.LoadA, ycsb.MixSD, sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	build, err := Run(params(BuildIndex, ycsb.LoadA, ycsb.MixSD, sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	noRep, err := Run(params(NoReplication, ycsb.LoadA, ycsb.MixSD, sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	if send.KCyclesPerOp >= build.KCyclesPerOp {
		t.Errorf("efficiency: Send-Index %.1f >= Build-Index %.1f Kcycles/op", send.KCyclesPerOp, build.KCyclesPerOp)
	}
	if send.IOAmp >= build.IOAmp {
		t.Errorf("I/O amp: Send-Index %.2f >= Build-Index %.2f", send.IOAmp, build.IOAmp)
	}
	if send.NetAmp <= build.NetAmp {
		t.Errorf("net amp: Send-Index %.2f <= Build-Index %.2f", send.NetAmp, build.NetAmp)
	}
	if noRep.KCyclesPerOp >= send.KCyclesPerOp {
		t.Errorf("No-Replication %.1f >= Send-Index %.1f Kcycles/op", noRep.KCyclesPerOp, send.KCyclesPerOp)
	}
	if noRep.IOAmp >= send.IOAmp {
		t.Errorf("No-Replication IOAmp %.2f >= Send-Index %.2f", noRep.IOAmp, send.IOAmp)
	}
}

func TestBuildIndexRLUsesSmallerL0(t *testing.T) {
	rl, err := Run(params(BuildIndexRL, ycsb.LoadA, ycsb.MixS, tinyScale, 2))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(params(BuildIndex, ycsb.LoadA, ycsb.MixS, tinyScale, 2))
	if err != nil {
		t.Fatal(err)
	}
	// A 3x smaller L0 means more compaction rounds: higher I/O amp
	// (§5.5).
	if rl.IOAmp <= full.IOAmp {
		t.Errorf("Build-IndexRL I/O amp %.2f <= Build-Index %.2f", rl.IOAmp, full.IOAmp)
	}
}

func TestRunExperimentTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(ExpTable2, tinyScale, &buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, mix := range []string{"S ", "M ", "L ", "SD", "MD", "LD"} {
		if !strings.Contains(out, mix) {
			t.Fatalf("table 2 output missing mix %q:\n%s", mix, out)
		}
	}
}

// reportExperiments are the experiments with machine-readable output.
var reportExperiments = []Experiment{
	ExpCompaction, ExpObservability, ExpIntegrity, ExpFigures, ExpTail, ExpGC, ExpLag,
}

// detailAs decodes a decoded report's Detail into its typed form.
func detailAs[T any](t *testing.T, rep Report) (v T) {
	t.Helper()
	data, err := json.Marshal(rep.Detail)
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	if err != nil {
		t.Fatalf("detail does not decode: %v", err)
	}
	return v
}

// positive fails unless every named metric was measured above zero.
func positive(t *testing.T, rep Report, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if rep.Metrics[k] <= 0 {
			t.Errorf("metric %q = %v, want > 0", k, rep.Metrics[k])
		}
	}
}

// reportChecks holds, per experiment, the behaviour its report must
// show beyond the schema checks TestReports applies to all of them.
var reportChecks = map[Experiment]func(t *testing.T, rep Report, raw []byte){
	ExpCompaction: func(t *testing.T, rep Report, _ []byte) {
		for _, mode := range []string{"serial.", "pipelined."} {
			positive(t, rep, mode+"jobs", mode+"segments_shipped", mode+"kops_per_sec")
		}
		m := rep.Metrics
		if m["serial.compaction_workers"] != 1 || m["serial.l0_buffers"] != 1 {
			t.Errorf("serial knobs: %v workers, %v buffers", m["serial.compaction_workers"], m["serial.l0_buffers"])
		}
		if m["pipelined.compaction_workers"] <= 1 || m["pipelined.l0_buffers"] <= 1 {
			t.Errorf("pipelined knobs: %v workers, %v buffers", m["pipelined.compaction_workers"], m["pipelined.l0_buffers"])
		}
		// The pipelined engine must actually overlap ship with build, and
		// a second frozen L0 must not make the paced writer stall more.
		positive(t, rep, "pipelined.overlap_fraction")
		if m["pipelined.writer_stalls"] > m["serial.writer_stalls"] {
			t.Errorf("pipelined writer stalled %v times, serial %v", m["pipelined.writer_stalls"], m["serial.writer_stalls"])
		}
	},
	ExpObservability: func(t *testing.T, rep Report, _ []byte) {
		for _, mode := range []string{"off.", "on."} {
			positive(t, rep, mode+"ns_per_op", mode+"kops_per_sec", mode+"paced_kops_per_sec", mode+"jobs")
		}
		// The instrumented run must have actually exercised the obs layer,
		// and the bare one must not have.
		positive(t, rep, "on.trace_spans", "on.scrapes")
		if _, ok := rep.Metrics["off.trace_spans"]; ok {
			t.Error("uninstrumented run reports trace spans")
		}
	},
	ExpIntegrity: func(t *testing.T, rep Report, _ []byte) {
		for _, mode := range []string{"raw.", "framed."} {
			positive(t, rep, mode+"ns_per_op", mode+"kops_per_sec", mode+"paced_kops_per_sec",
				mode+"get_ns_per_op", mode+"jobs")
		}
	},
	ExpFigures: func(t *testing.T, rep Report, _ []byte) {
		d := detailAs[figuresDetail](t, rep)
		if len(d.Runs) != 3 {
			t.Fatalf("runs = %d, want 3 (Load A, Run A, Run C)", len(d.Runs))
		}
		for _, r := range d.Runs {
			if r.Ops == 0 || r.KOpsPerSec <= 0 {
				t.Fatalf("run %q measured nothing: %+v", r.Workload, r)
			}
			if len(r.Throughput) < 10 {
				t.Fatalf("run %q throughput series has %d points", r.Workload, len(r.Throughput))
			}
			if len(r.NetBytesSeries) == 0 || r.NetBytesSeries[len(r.NetBytesSeries)-1].V <= 0 {
				t.Fatalf("run %q recorded no replication network bytes", r.Workload)
			}
			if len(r.Latency) == 0 {
				t.Fatalf("run %q has no latency summary", r.Workload)
			}
			for op, l := range r.Latency {
				if l.Count == 0 || l.P50Us <= 0 || l.P99Us < l.P50Us || l.P999Us < l.P99Us {
					t.Fatalf("run %q op %q latency implausible: %+v", r.Workload, op, l)
				}
			}
		}
		// The run phases replicate through Send-Index, so tracing at the
		// default rate must have produced request spans.
		positive(t, rep, "trace_spans", "load_a.kops_per_sec", "run_c.io_amp")
		// Fig. 10: the compressed default must move fewer ship bytes than
		// raw images, and shipping them must still cost something.
		loadA, base := d.Runs[0], d.Baseline
		if loadA.ShipWireBytes == 0 || loadA.ShipWireBytes >= loadA.ShipRawBytes {
			t.Fatalf("compression saved nothing: raw=%d wire=%d", loadA.ShipRawBytes, loadA.ShipWireBytes)
		}
		if base.ShipWireBytes != base.ShipRawBytes || base.ShipWireBytes == 0 {
			t.Fatalf("baseline shipped framed bytes: raw=%d wire=%d", base.ShipRawBytes, base.ShipWireBytes)
		}
		ratio, baseline := rep.Metrics["net_amp_ratio"], rep.Metrics["baseline_net_amp_ratio"]
		if ratio <= 1 || ratio >= baseline {
			t.Fatalf("net-amp ratio = %.3f, want in (1, baseline %.3f)", ratio, baseline)
		}
	},
	ExpTail: func(t *testing.T, rep Report, raw []byte) {
		d := detailAs[map[string][]TailScenario](t, rep)
		if len(d["scenarios"]) != 5 {
			t.Fatalf("scenarios = %d, want 5", len(d["scenarios"]))
		}
		// README's exemplar lookup greps the report for trace IDs.
		if !bytes.Contains(raw, []byte(`"trace_id": `)) {
			t.Error("report carries no exemplar trace_id")
		}
		positive(t, rep, "pre_burst_p99_us", "adaptive_burst_p99_us", "fixed_burst_p99_us")
	},
	ExpGC: func(t *testing.T, rep Report, _ []byte) {
		d := detailAs[map[string][]GCSpaceSample](t, rep)
		if len(d["gc_off"]) != gcRounds || len(d["gc_on"]) != gcRounds {
			t.Fatalf("space series: %d off / %d on samples, want %d each", len(d["gc_off"]), len(d["gc_on"]), gcRounds)
		}
		positive(t, rep, "gc_on.gc_passes", "gc_on.gc_segments_freed")
		if amp := rep.Metrics["gc_off.final_space_amp"]; amp < gcRounds/2 {
			t.Errorf("GC off holds %.2fx the live data after a %dx overwrite", amp, gcRounds)
		}
	},
	ExpLag: func(t *testing.T, rep Report, _ []byte) {
		if len(detailAs[map[string][]LagSample](t, rep)["series"]) == 0 {
			t.Error("no lag series")
		}
		positive(t, rep, "acked_writes", "max_lag_ops", "tracking_on.paced_kops_per_sec")
	},
}

// reportScale is the scale TestReports runs exp at: tinyScale, except
// that the compaction experiment gets enough records for a level to
// outgrow one leaf segment (about 8 K sequential keys in 64 KB of
// 512-byte columnar leaves), so a segment can ship before its build ends.
func reportScale(exp Experiment) Scale {
	sc := tinyScale
	if exp == ExpCompaction {
		sc.Records = 16000
	}
	return sc
}

// TestReports runs every report-writing experiment once at tinyScale —
// without the retry policy, since wall-clock bounds are not asserted at
// a scale this small — and checks the one schema: the report decodes
// into Report, every gate reads a measured metric, every hard gate
// passes, and the declared files are written.
func TestReports(t *testing.T) {
	for _, exp := range reportExperiments {
		t.Run(string(exp), func(t *testing.T) {
			e := experiments[exp]
			dir := t.TempDir()
			var out bytes.Buffer
			if _, err := e.runOnce(exp, reportScale(exp), &out, dir); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+string(exp)+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var rep Report
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("report does not decode into Report: %v\n%s", err, raw)
			}
			if rep.Experiment != exp || rep.Scale != reportScale(exp) {
				t.Fatalf("report is for %q at %+v", rep.Experiment, rep.Scale)
			}
			for k, v := range rep.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %q = %v", k, v)
				}
			}

			if len(rep.Gates) != len(e.gates) {
				t.Fatalf("report has %d gates, %d declared", len(rep.Gates), len(e.gates))
			}
			for _, g := range rep.Gates {
				v, ok := rep.Metrics[g.Metric]
				if !ok || v != g.Measured {
					t.Errorf("gate %q measured %v, metric %q = %v (present=%v)", g.Name, g.Measured, g.Metric, v, ok)
				}
				if !g.Timing && !g.Pass {
					t.Errorf("hard gate %q failed: %v %s %v", g.Name, g.Measured, g.Op, g.Budget)
				}
				// Loose sanity bound on the paced figures only: the
				// closed-loop ns/op ratio of a run this small is wall-clock
				// noise (seen at 193%% on a busy 2-core box while the paced
				// figure read 1.4%%). tebis-bench enforces the real budgets.
				if g.Timing && g.Op == "<=" && g.Measured > 10*g.Budget {
					t.Errorf("timing gate %q implausible: %v against a budget of %v", g.Name, g.Measured, g.Budget)
				}
				if !strings.Contains(out.String(), g.Name) {
					t.Errorf("gate %q missing from the printed table", g.Name)
				}
			}

			want := append(e.csvs[:len(e.csvs):len(e.csvs)], "BENCH_"+string(exp)+".json")
			if len(rep.Artifacts) != len(want) {
				t.Fatalf("artifacts = %v, want %v", rep.Artifacts, want)
			}
			for i, path := range rep.Artifacts {
				data, err := os.ReadFile(path)
				if err != nil || filepath.Base(path) != want[i] {
					t.Fatalf("artifact %d = %q (%v), want %s", i, path, err, want[i])
				}
				if lines := bytes.Count(data, []byte("\n")); lines < 4 {
					t.Errorf("%s has only %d lines", want[i], lines)
				}
			}
			reportChecks[exp](t, rep, raw)
		})
	}
}

// fakeExperiment reports values[i] as metric "v" on its i-th run, gated
// at v <= 5.
func fakeExperiment(timing bool, values ...float64) (experiment, *int) {
	runs := new(int)
	return experiment{
		gates: []Gate{{Name: "g", Metric: "v", Op: "<=", Budget: 5, Timing: timing}},
		run: func(Scale, io.Writer) (*measurement, error) {
			v := values[*runs]
			*runs++
			return &measurement{metrics: map[string]float64{"v": v}}, nil
		},
	}, runs
}

func TestGatePolicy(t *testing.T) {
	for _, tc := range []struct {
		name     string
		timing   bool
		values   []float64
		wantRuns int
		wantErr  bool
	}{
		{"all pass: one run", true, []float64{1}, 1, false},
		{"hard gate fails: error, no second run", false, []float64{9, 1}, 1, true},
		{"timing gate fails: exactly one re-run", true, []float64{9, 1}, 2, false},
		{"timing gate fails twice: error", true, []float64{9, 9, 1}, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, runs := fakeExperiment(tc.timing, tc.values...)
			err := e.runGated("fake", tinyScale, io.Discard, "")
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if *runs != tc.wantRuns {
				t.Fatalf("ran %d times, want %d", *runs, tc.wantRuns)
			}
		})
	}
}

// TestBrokenBudgetFails shows the path that makes tebis-bench exit 1: a
// real experiment under a budget it cannot meet (shipping an index
// always costs some network) returns an error naming the gate, and
// still writes the report that records the miss.
func TestBrokenBudgetFails(t *testing.T) {
	e := experiments[ExpFigures]
	e.gates = []Gate{{Name: "net-amp", Metric: "net_amp_ratio", Op: "<=", Budget: 1}}
	dir := t.TempDir()
	err := e.runGated(ExpFigures, tinyScale, io.Discard, dir)
	if err == nil || !strings.Contains(err.Error(), "net-amp") {
		t.Fatalf("err = %v, want a missed net-amp gate", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 1 || rep.Gates[0].Pass || rep.Gates[0].Measured <= 1 {
		t.Fatalf("report gates = %+v, want one failed net-amp gate", rep.Gates)
	}
}

// TestPacedABOffersHalfTheSlowerMode pins the protocol: both modes are
// paced at the same rate, at most half of what either sustained
// unpaced, so neither paced run is a capacity measurement.
func TestPacedABOffersHalfTheSlowerMode(t *testing.T) {
	unpaced := map[bool][]float64{false: {100, 90, 110}, true: {60, 50, 70}}
	calls := map[bool]int{}
	var offered []float64
	off, on, loss, err := pacedAB(func(on bool, opsPerSec float64) (trial, error) {
		if opsPerSec == 0 {
			calls[on]++
			return trial{kopsKey: unpaced[on][calls[on]-1]}, nil
		}
		offered = append(offered, opsPerSec)
		achieved := opsPerSec / 1000
		if on {
			achieved *= 0.9
		}
		return trial{kopsKey: achieved}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) != 6 {
		t.Fatalf("%d paced trials, want 3 per mode", len(offered))
	}
	for _, rate := range offered {
		if rate != offered[0] || rate > 0.5*1000*off[kopsKey] || rate > 0.5*1000*on[kopsKey] {
			t.Fatalf("offered %v ops/s with unpaced medians off=%v on=%v Kops/s", offered, off[kopsKey], on[kopsKey])
		}
	}
	if off[kopsKey] != 100 || on[kopsKey] != 60 || offered[0] != 30000 {
		t.Fatalf("medians off=%v on=%v, offered %v; want 100, 60, 30000", off[kopsKey], on[kopsKey], offered[0])
	}
	if off["paced_kops_per_sec"] != 30 || on["paced_kops_per_sec"] != 27 || math.Abs(loss-10) > 1e-9 {
		t.Fatalf("paced off=%v on=%v loss=%v%%, want 30, 27, 10%%", off["paced_kops_per_sec"], on["paced_kops_per_sec"], loss)
	}
}

// TestGateTableMatchesDeclarations keeps EXPERIMENTS.md's gate table
// equal to the Go declarations: the table is this rendering, verbatim.
func TestGateTableMatchesDeclarations(t *testing.T) {
	var table strings.Builder
	table.WriteString("| Experiment | Gate | Bound | Kind | Files written |\n|---|---|---|---|---|\n")
	for _, exp := range reportExperiments {
		e := experiments[exp]
		files := "`BENCH_" + string(exp) + ".json`"
		for _, f := range e.csvs {
			files += ", `" + f + "`"
		}
		if len(e.gates) == 0 {
			fmt.Fprintf(&table, "| `%s` | — | — | — | %s |\n", exp, files)
		}
		for _, g := range e.gates {
			kind := "hard"
			if g.Timing {
				kind = "timing"
			}
			fmt.Fprintf(&table, "| `%s` | %s | `%s` %s %g | %s | %s |\n", exp, g.Name, g.Metric, g.Op, g.Budget, kind, files)
			files = ""
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte(table.String())) {
		t.Fatalf("EXPERIMENTS.md's gate table is out of date; it must read:\n%s", table.String())
	}
}

func TestSetupStringsAndModes(t *testing.T) {
	if SendIndex.String() != "Send-Index" || BuildIndexRL.String() != "Build-IndexRL" {
		t.Fatal("setup names")
	}
	if NoReplication.Mode().String() != "No-Replication" {
		t.Fatal("mode mapping")
	}
	if BuildIndexRL.Mode() != BuildIndex.Mode() {
		t.Fatal("RL must share Build-Index mode")
	}
}
