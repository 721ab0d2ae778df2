package bench

import (
	"fmt"
	"io"
	"os"
	"strings"

	"tebis/internal/metrics"
	"tebis/internal/ycsb"
)

// Scale sizes an experiment suite. The paper runs 100M-record loads on
// three Xeon servers; the suite reproduces the comparisons at a reduced
// scale that preserves the compaction depth (records per region per L0)
// and every protocol path (DESIGN.md "Packages and substitutions").
type Scale struct {
	Records   uint64 `json:"records"`
	Ops       uint64 `json:"ops"`
	L0MaxKeys int    `json:"l0_max_keys"`
}

// Scales for quick runs (unit benches) and fuller runs (tebis-bench).
var (
	// QuickScale keeps `go test -bench` fast.
	QuickScale = Scale{Records: 12000, Ops: 6000, L0MaxKeys: 512}
	// FullScale is the tebis-bench default.
	FullScale = Scale{Records: 60000, Ops: 30000, L0MaxKeys: 1024}
)

// Experiment identifies one paper table or figure.
type Experiment string

// The paper's evaluation artifacts.
const (
	ExpFig6   Experiment = "fig6"
	ExpFig7a  Experiment = "fig7a"
	ExpFig7b  Experiment = "fig7b"
	ExpFig8   Experiment = "fig8"
	ExpTable3 Experiment = "table3"
	ExpFig9a  Experiment = "fig9a"
	ExpFig9b  Experiment = "fig9b"
	ExpFig10a Experiment = "fig10a"
	ExpFig10b Experiment = "fig10b"
	ExpSec55  Experiment = "sec55"
	ExpTable2 Experiment = "table2"
	// ExpCompaction is not a paper artifact: it ablates the staged
	// compaction scheduler (serial vs pipelined) on a bare engine.
	ExpCompaction Experiment = "compaction"
	// ExpObservability is not a paper artifact: it measures the hot-path
	// cost of the obs layer (registry + tracer + scraping) on the
	// compaction path.
	ExpObservability Experiment = "observability"
	// ExpIntegrity is not a paper artifact: it measures the checksum
	// tax of the crash-consistency layer (CRC32C framing + read
	// verification, DESIGN.md "Storage integrity").
	ExpIntegrity Experiment = "integrity"
	// ExpFigures drives YCSB Load A / Run A / Run C through a replicated
	// Send-Index cluster with the registry sampler on and emits
	// per-figure CSV time series shaped like the paper's Fig. 6-8
	// (DESIGN.md "Observability").
	ExpFigures Experiment = "figures"
	// ExpTail is not a paper artifact: it drives adversarial multi-tenant
	// traffic (uniform, zipfian, diurnal ramp, flash burst) through a
	// replicated cluster with tracing at an elevated sample rate and
	// emits per-stage/per-tenant tail attribution plus the fixed-knob
	// versus adaptive-admission burst comparison (DESIGN.md
	// "Observability").
	ExpTail Experiment = "tail"
	// ExpGC is not a paper artifact: it drives a 10x overwrite workload
	// with online value-log GC off vs on (DESIGN.md "Value-log GC"),
	// measuring steady-state space amplification and GC's offered-load
	// cost.
	ExpGC Experiment = "gc"
	// ExpLag is not a paper artifact: it injects a 50ms-delayed backup
	// via RDMA fault hooks and verifies the replication-plane health
	// surface (DESIGN.md "Observability") — lag/staleness rise then
	// drain to ~0 with zero lost acks and a ~free tracker.
	ExpLag Experiment = "lag"
)

// AllExperiments lists every reproducible artifact in paper order.
var AllExperiments = []Experiment{
	ExpTable2, ExpFig6, ExpFig7a, ExpFig7b, ExpFig8, ExpTable3,
	ExpFig9a, ExpFig9b, ExpFig10a, ExpFig10b, ExpSec55, ExpCompaction,
	ExpObservability, ExpIntegrity, ExpFigures, ExpTail, ExpGC, ExpLag,
}

// twoWaySetups are the Figure 6/7 configurations.
var twoWaySetups = []Setup{BuildIndex, SendIndex, NoReplication}

// threeWaySetups are the Figure 10 configurations (§5.4-5.5).
var threeWaySetups = []Setup{BuildIndexRL, BuildIndex, SendIndex, NoReplication}

// experiments is every runnable artifact with the gates it must hold
// and the series files it writes. Gates are declared beside the
// experiment that measures them (compaction.go … lag.go).
var experiments = map[Experiment]experiment{
	ExpTable2: {run: rows(runTable2)},
	ExpFig6:   {run: rows(runFig6)},
	ExpFig7a:  {run: rows(func(sc Scale, w io.Writer) error { return runFig7(sc, w, ycsb.LoadA) })},
	ExpFig7b:  {run: rows(func(sc Scale, w io.Writer) error { return runFig7(sc, w, ycsb.RunA) })},
	ExpFig8:   {run: rows(runFig8)},
	ExpTable3: {run: rows(runTable3)},
	ExpFig9a:  {run: rows(func(sc Scale, w io.Writer) error { return runFig9(sc, w, ycsb.LoadA) })},
	ExpFig9b:  {run: rows(func(sc Scale, w io.Writer) error { return runFig9(sc, w, ycsb.RunA) })},
	ExpFig10a: {run: rows(func(sc Scale, w io.Writer) error { return runFig10(sc, w, ycsb.LoadA) })},
	ExpFig10b: {run: rows(func(sc Scale, w io.Writer) error { return runFig10(sc, w, ycsb.RunA) })},
	ExpSec55:  {run: rows(runSec55)},

	ExpCompaction:    {run: runCompaction},
	ExpObservability: {run: runObservability, gates: observabilityGates},
	ExpIntegrity:     {run: runIntegrity, gates: integrityGates},
	ExpFigures:       {run: runFigures, gates: figuresGates, csvs: figuresCSVs},
	ExpTail:          {run: runTail, gates: tailGates, csvs: []string{tailCSV}},
	ExpGC:            {run: runGC, gates: gcGates, csvs: []string{gcCSV}},
	ExpLag:           {run: runLag, gates: lagGates, csvs: []string{lagCSV}},
}

// RunExperiment executes one artifact, writing the paper-shaped rows to
// w. Experiments with machine-readable output also print a gate table
// and write BENCH_<experiment>.json and their BENCH_fig*.csv series
// into outDir (an empty outDir writes no files). A missed gate is an
// error; see experiment.runGated for the retry policy.
func RunExperiment(exp Experiment, sc Scale, w io.Writer, outDir string) error {
	e, ok := experiments[exp]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", exp)
	}
	return e.runGated(exp, sc, w, outDir)
}

// writeArtifact writes one output file and says so on w.
func writeArtifact(w io.Writer, path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func params(setup Setup, wl ycsb.Workload, mix ycsb.SizeMix, sc Scale, replicas int) Params {
	return Params{
		Setup:     setup,
		Workload:  wl,
		Mix:       mix,
		Records:   sc.Records,
		Ops:       sc.Ops,
		L0MaxKeys: sc.L0MaxKeys,
		Replicas:  replicas,
	}
}

// runTable2 prints the KV size distributions and dataset sizes.
func runTable2(sc Scale, w io.Writer) error {
	fmt.Fprintf(w, "Table 2: KV size distributions (records=%d)\n", sc.Records)
	fmt.Fprintf(w, "%-4s %-12s %12s %14s\n", "Mix", "S%-M%-L%", "#KV Pairs", "Dataset (MB)")
	for _, mix := range ycsb.AllMixes {
		fmt.Fprintf(w, "%-4s %3d-%d-%d %14d %14.1f\n",
			mix.Name, mix.Small, mix.Medium, mix.Large, sc.Records,
			float64(mix.DatasetBytes(sc.Records))/1e6)
	}
	return nil
}

// runFig6 reproduces Figure 6: throughput and efficiency for Load A and
// Run A-D with the SD mix, two-way replication.
func runFig6(sc Scale, w io.Writer) error {
	workloads := []ycsb.Workload{ycsb.LoadA, ycsb.RunA, ycsb.RunB, ycsb.RunC, ycsb.RunD}
	fmt.Fprintln(w, "Figure 6: Load A, Run A-D, SD mix, two-way replication")
	header(w, "Workload")
	for _, wl := range workloads {
		for _, setup := range twoWaySetups {
			res, err := Run(params(setup, wl, ycsb.MixSD, sc, 1))
			if err != nil {
				return err
			}
			row(w, wl.String(), res)
		}
	}
	return nil
}

// runFig7 reproduces Figure 7: all four metrics over the six KV size
// mixes for one workload, two-way replication.
func runFig7(sc Scale, w io.Writer, wl ycsb.Workload) error {
	fmt.Fprintf(w, "Figure 7 (%s): six KV size mixes, two-way replication\n", wl)
	header(w, "Mix")
	for _, mix := range ycsb.AllMixes {
		for _, setup := range twoWaySetups {
			res, err := Run(params(setup, wl, mix, sc, 1))
			if err != nil {
				return err
			}
			row(w, mix.Name, res)
		}
	}
	return nil
}

// runFig8 reproduces Figure 8: tail latencies for Load A inserts and
// Run A reads/updates under the SD mix.
func runFig8(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: tail latency (µs), SD mix, two-way replication")
	type batch struct {
		label string
		wl    ycsb.Workload
		kind  ycsb.OpKind
	}
	batches := []batch{
		{"Load A Insert", ycsb.LoadA, ycsb.OpInsert},
		{"Run A Read", ycsb.RunA, ycsb.OpRead},
		{"Run A Update", ycsb.RunA, ycsb.OpUpdate},
	}
	for _, b := range batches {
		fmt.Fprintf(w, "\n%s latency percentiles (µs)\n", b.label)
		fmt.Fprintf(w, "%-16s", "Setup")
		for _, p := range metrics.TailPercentiles {
			fmt.Fprintf(w, "%10.2f%%", p)
		}
		fmt.Fprintln(w)
		for _, setup := range []Setup{SendIndex, BuildIndex, NoReplication} {
			res, err := Run(params(setup, b.wl, ycsb.MixSD, sc, 1))
			if err != nil {
				return err
			}
			h := res.Latency[b.kind]
			fmt.Fprintf(w, "%-16s", setup)
			for _, p := range metrics.TailPercentiles {
				fmt.Fprintf(w, "%11.0f", float64(h.Percentile(p).Microseconds()))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// runTable3 reproduces Table 3: the per-component cycles/op breakdown
// for Load A with the SD mix.
func runTable3(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Table 3: cycles/op breakdown, Load A, SD mix, two-way replication")
	build, err := Run(params(BuildIndex, ycsb.LoadA, ycsb.MixSD, sc, 1))
	if err != nil {
		return err
	}
	send, err := Run(params(SendIndex, ycsb.LoadA, ycsb.MixSD, sc, 1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %14s %14s %10s\n", "Component", "Build-Index", "Send-Index", "Reduction")
	for comp := metrics.Component(0); comp < metrics.NumComponents; comp++ {
		b, s := build.Breakdown[comp], send.Breakdown[comp]
		red := "-"
		if b > 0 && s <= b {
			red = fmt.Sprintf("%.1f%%", 100*float64(b-s)/float64(b))
		}
		fmt.Fprintf(w, "%-24s %14d %14d %10s\n", comp, b, s, red)
	}
	bt, st := build.Breakdown.Total(), send.Breakdown.Total()
	fmt.Fprintf(w, "%-24s %14d %14d %9.1f%%\n", "Total", bt, st, 100*float64(bt-st)/float64(bt))
	return nil
}

// runFig9 reproduces Figure 9: increasing percentages of small KVs.
func runFig9(sc Scale, w io.Writer, wl ycsb.Workload) error {
	fmt.Fprintf(w, "Figure 9 (%s): %%small KVs sweep, two-way replication\n", wl)
	header(w, "Small%")
	for _, pct := range []int{40, 60, 80, 100} {
		mix := ycsb.SmallPercentMix(pct)
		for _, setup := range twoWaySetups {
			res, err := Run(params(setup, wl, mix, sc, 1))
			if err != nil {
				return err
			}
			row(w, fmt.Sprintf("%d%%", pct), res)
		}
	}
	return nil
}

// runFig10 reproduces Figure 10: three-way replication over the six
// mixes, including the reduced-L0 baseline.
func runFig10(sc Scale, w io.Writer, wl ycsb.Workload) error {
	fmt.Fprintf(w, "Figure 10 (%s): six KV size mixes, three-way replication\n", wl)
	header(w, "Mix")
	for _, mix := range ycsb.AllMixes {
		for _, setup := range threeWaySetups {
			res, err := Run(params(setup, wl, mix, sc, 2))
			if err != nil {
				return err
			}
			row(w, mix.Name, res)
		}
	}
	return nil
}

// runSec55 reproduces the §5.5 comparison: Send-Index vs Build-IndexRL
// at an equal total L0 memory budget (SD mix, three-way).
func runSec55(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "§5.5: L0 memory budget — Send-Index vs Build-IndexRL, SD mix, three-way")
	header(w, "Workload")
	for _, wl := range []ycsb.Workload{ycsb.LoadA, ycsb.RunA} {
		for _, setup := range []Setup{BuildIndexRL, SendIndex} {
			res, err := Run(params(setup, wl, ycsb.MixSD, sc, 2))
			if err != nil {
				return err
			}
			row(w, wl.String(), res)
		}
	}
	return nil
}

// header prints the metric column headings.
func header(w io.Writer, first string) {
	fmt.Fprintf(w, "%-10s %-16s %12s %14s %8s %8s\n",
		first, "Setup", "Kops/s", "Kcycles/op", "I/O-amp", "Net-amp")
	fmt.Fprintln(w, strings.Repeat("-", 74))
}

// row prints one result line.
func row(w io.Writer, label string, r Result) {
	fmt.Fprintf(w, "%-10s %-16s %12.1f %14.1f %8.2f %8.2f\n",
		label, r.Setup, r.KOpsPerSec, r.KCyclesPerOp, r.IOAmp, r.NetAmp)
}
