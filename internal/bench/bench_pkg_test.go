package bench

import (
	"bytes"
	"encoding/json"
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
	// The headline comparison at tiny scale: Send-Index must beat
	// Build-Index on efficiency and I/O amplification and lose on
	// network amplification (Load A, SD, two-way).
	send, err := Run(params(SendIndex, ycsb.LoadA, ycsb.MixSD, tinyScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	build, err := Run(params(BuildIndex, ycsb.LoadA, ycsb.MixSD, tinyScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	noRep, err := Run(params(NoReplication, ycsb.LoadA, ycsb.MixSD, tinyScale, 1))
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

// runReport runs exp at tinyScale into a fresh output directory and
// decodes its BENCH_<exp>.json into rep.
func runReport(t *testing.T, exp Experiment, rep any) {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunExperiment(exp, tinyScale, &buf, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+string(exp)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, data)
	}
}

func TestRunExperimentCompaction(t *testing.T) {
	var rep CompactionReport
	runReport(t, ExpCompaction, &rep)
	if rep.Records != tinyScale.Records {
		t.Fatalf("records = %d, want %d", rep.Records, tinyScale.Records)
	}
	for _, m := range []CompactionModeResult{rep.Serial, rep.Pipelined} {
		if m.Jobs == 0 || m.SegmentsShipped == 0 || m.KOpsPerSec <= 0 {
			t.Fatalf("mode %q measured nothing: %+v", m.Mode, m)
		}
	}
	if rep.Serial.CompactionWorkers != 1 || rep.Serial.L0Buffers != 1 {
		t.Fatalf("serial knobs: %+v", rep.Serial)
	}
	if rep.Pipelined.CompactionWorkers <= 1 || rep.Pipelined.L0Buffers <= 1 {
		t.Fatalf("pipelined knobs: %+v", rep.Pipelined)
	}
	// The pipelined engine must actually overlap ship with build.
	if rep.Pipelined.OverlapFraction <= 0 {
		t.Fatalf("pipelined overlap fraction = %v", rep.Pipelined.OverlapFraction)
	}
}

func TestRunExperimentObservability(t *testing.T) {
	var rep ObservabilityReport
	runReport(t, ExpObservability, &rep)
	if rep.Records != tinyScale.Records {
		t.Fatalf("records = %d, want %d", rep.Records, tinyScale.Records)
	}
	for _, m := range []ObservabilityModeResult{rep.Off, rep.On} {
		if m.NsPerOp <= 0 || m.KOpsPerSec <= 0 || m.PacedKOpsPerSec <= 0 || m.Jobs == 0 {
			t.Fatalf("mode (instrumented=%v) measured nothing: %+v", m.Instrumented, m)
		}
	}
	if rep.Off.Instrumented || !rep.On.Instrumented {
		t.Fatalf("mode flags swapped: off=%+v on=%+v", rep.Off, rep.On)
	}
	// The instrumented run must have actually exercised the obs layer.
	if rep.On.TraceSpans == 0 {
		t.Fatal("instrumented run recorded no trace spans")
	}
	// Loose sanity bound on the paced figure only: the closed-loop
	// ns/op ratio of a run this small is wall-clock noise (seen at 193%
	// on a busy 2-core box while the paced figure read 1.4%). The
	// acceptance bound (≤5%) is gated in scripts/check.sh.
	if rep.OverheadOfferedLoadPercent > 50 {
		t.Fatalf("implausible offered-load overhead: %.1f%%", rep.OverheadOfferedLoadPercent)
	}
}

func TestRunExperimentIntegrity(t *testing.T) {
	var rep IntegrityReport
	runReport(t, ExpIntegrity, &rep)
	if rep.Records != tinyScale.Records {
		t.Fatalf("records = %d, want %d", rep.Records, tinyScale.Records)
	}
	for _, m := range []IntegrityModeResult{rep.Raw, rep.Framed} {
		if m.NsPerOp <= 0 || m.KOpsPerSec <= 0 || m.PacedKOpsPerSec <= 0 ||
			m.GetNsPerOp <= 0 || m.Jobs == 0 {
			t.Fatalf("mode (framed=%v) measured nothing: %+v", m.Framed, m)
		}
	}
	if rep.Raw.Framed || !rep.Framed.Framed {
		t.Fatalf("mode flags swapped: raw=%+v framed=%+v", rep.Raw, rep.Framed)
	}
	// Paced figure only, as in the observability test; the ≤5%
	// acceptance bound is checked on the full-scale tebis-bench run.
	if rep.OverheadOfferedLoadPercent > 50 {
		t.Fatalf("implausible offered-load overhead: %.1f%%", rep.OverheadOfferedLoadPercent)
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

func TestRunExperimentFigures(t *testing.T) {
	var rep FiguresReport
	runReport(t, ExpFigures, &rep)
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d, want 3 (Load A, Run A, Run C)", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Ops == 0 || r.KOpsPerSec <= 0 {
			t.Fatalf("run %q measured nothing: %+v", r.Workload, r)
		}
		// The acceptance floor: every run carries >= 20 time-series
		// samples and a non-trivial throughput curve.
		if r.Samples < 20 {
			t.Fatalf("run %q has %d samples, want >= 20", r.Workload, r.Samples)
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
	if rep.TraceSpans == 0 {
		t.Fatal("figures run recorded no trace spans")
	}
	if len(rep.CSVs) != 4 {
		t.Fatalf("CSVs = %v, want 4 files", rep.CSVs)
	}
	// Fig. 10: the compressed default must move fewer ship bytes than
	// raw images, and index shipping with the codec on must inflate
	// replication network by at most 1.1x over log replication alone.
	if rep.Fig10 == nil {
		t.Fatal("report has no fig10 section")
	}
	loadA := rep.Runs[0]
	if loadA.ShipWireBytes == 0 || loadA.ShipWireBytes >= loadA.ShipRawBytes {
		t.Fatalf("compression saved nothing: raw=%d wire=%d", loadA.ShipRawBytes, loadA.ShipWireBytes)
	}
	base := rep.Fig10.Baseline
	if base.ShipWireBytes != base.ShipRawBytes || base.ShipWireBytes == 0 {
		t.Fatalf("baseline shipped framed bytes: raw=%d wire=%d", base.ShipRawBytes, base.ShipWireBytes)
	}
	if rep.Fig10.NetAmpRatio <= 1 || rep.Fig10.NetAmpRatio > 1.1 {
		t.Fatalf("net-amp ratio = %.3f, want (1, 1.1]", rep.Fig10.NetAmpRatio)
	}
	if rep.Fig10.NetAmpRatio >= rep.Fig10.BaselineNetAmpRatio {
		t.Fatalf("compression did not reduce net amplification: %.3f >= %.3f",
			rep.Fig10.NetAmpRatio, rep.Fig10.BaselineNetAmpRatio)
	}
	for _, f := range rep.CSVs {
		csv, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Count(csv, []byte("\n"))
		if lines < 4 {
			t.Fatalf("CSV %s has only %d lines", f, lines)
		}
	}
}
