package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// environment says where a result file's numbers were taken; every
// result file carries one.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// outside a git checkout (the driver's checkout is not one).
	Commit string `json:"commit"`
	// Modified says the working tree differed from Commit at build time.
	Modified bool `json:"modified"`
}

func currentEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// runRecord is one benchmark invocation in a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryRow condenses the untraced runs of one workload x end-to-end
// metric: what -compare reads and what seed-spread.json records.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median; Bound the metric's regression bound.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
}

// resultFile is a set of runs of one commit on one machine. -out
// appends to it, so repeated invocations build the set.
type resultFile struct {
	Environment environment  `json:"environment"`
	Runs        []runRecord  `json:"runs"`
	Summary     []summaryRow `json:"summary"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRun adds rec to the result file at path, creating it if needed,
// and recomputes the summary.
func appendRun(path string, rec runRecord) error {
	rf, err := readResultFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Environment = currentEnvironment()
	rf.Runs = append(rf.Runs, rec)
	rf.Summary = summarise(rf.Runs)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarise reduces the untraced runs to one row per workload x
// end-to-end metric, in catalogue order.
func summarise(runs []runRecord) []summaryRow {
	var rows []summaryRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range runs {
				if mv, ok := r.Metrics[d.Name]; ok && r.Workload == w.Name && !r.Trace {
					vals = append(vals, mv.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			rows = append(rows, summaryRow{
				Workload: w.Name, Metric: d.Name, Unit: d.Unit, Better: d.Better,
				Runs: len(vals), Median: median(vals), Q1: q1, Q3: q3,
				Spread: spread(vals), Bound: d.Bound,
			})
		}
	}
	return rows
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a change's median with its base. worsening is the
// change as a share of the base, positive when the metric got worse.
// Beyond the bound either way it is worse or better; inside it, the
// metric is within only if both sides' run-to-run spread is inside the
// bound too — otherwise the runs cannot tell, and it is unresolved.
func judge(base, change summaryRow) (worsening float64, verdict string) {
	if base.Median != 0 {
		worsening = (change.Median - base.Median) / base.Median
	}
	if base.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > base.Bound:
		return worsening, verdictWorse
	case worsening < -base.Bound:
		return worsening, verdictBetter
	case base.Spread > base.Bound || change.Spread > base.Bound:
		return worsening, verdictUnresolved
	}
	return worsening, verdictWithin
}

// compare prints one row per workload x end-to-end metric present in
// both files and reports whether any got worse.
func compare(out io.Writer, basePath, changePath string) (anyWorse bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	changed := map[key]summaryRow{}
	for _, r := range summarise(change.Runs) {
		changed[key{r.Workload, r.Metric}] = r
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase (n, spread)\tchange (n, spread)\tchange/base\tbound\tverdict\n")
	rows := 0
	for _, b := range summarise(base.Runs) {
		c, ok := changed[key{b.Workload, b.Metric}]
		if !ok {
			continue
		}
		rows++
		_, verdict := judge(b, c)
		anyWorse = anyWorse || verdict == verdictWorse
		ratio := 0.0
		if b.Median != 0 {
			ratio = c.Median / b.Median
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%.4f of %.6g\t%.0f%%\t%s\n",
			b.Workload, b.Metric, b.Unit, b.Median, b.Runs, 100*b.Spread, c.Median, c.Runs, 100*c.Spread,
			ratio, b.Median, 100*b.Bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no workload x metric", basePath, changePath)
	}
	return anyWorse, nil
}

// printTable writes rec's metrics by name, in catalogue order, with
// unit and sample count.
func printTable(out io.Writer, rec runRecord) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s seed=%d seconds=%d trace=%v\tvalue\tunit\tsamples\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if mv, ok := rec.Metrics[d.Name]; ok {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", d.Name, mv.Value, mv.Unit, mv.Samples)
			}
		}
	}
	tw.Flush()
}
