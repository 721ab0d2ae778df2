package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// This file is the reporting half of the harness: the one report
// schema, the gates declared against it, and the policy that turns a
// missed gate into a failed run.

// Gate is one acceptance bound on a metric. An experiment declares its
// gates (Name, Metric, Op, Budget, Timing) beside the code that measures
// them; the harness fills Measured and Pass.
type Gate struct {
	Name string `json:"name"`
	// Metric is the Report.Metrics key the gate reads.
	Metric string `json:"metric"`
	// Op is "<=", ">=" or "==": the gate passes when Measured Op Budget.
	Op       string  `json:"op"`
	Budget   float64 `json:"budget"`
	Measured float64 `json:"measured"`
	Pass     bool    `json:"pass"`
	// Timing marks a bound on a wall-clock figure, which a loaded host
	// can miss on correct code: a run whose only misses are timing gates
	// is re-run once. A hard gate (lost acks, wrong reads, evictions,
	// counted bytes) is never retried.
	Timing bool `json:"timing"`
}

func (g Gate) holds(v float64) bool {
	switch g.Op {
	case "<=":
		return v <= g.Budget
	case ">=":
		return v >= g.Budget
	case "==":
		return v == g.Budget
	}
	return false
}

// Report is the one document every report-writing experiment emits, as
// BENCH_<experiment>.json.
type Report struct {
	Experiment Experiment `json:"experiment"`
	Scale      Scale      `json:"scale"`
	// Config is what the experiment fixed beyond the scale.
	Config map[string]any `json:"config,omitempty"`
	// Metrics is every scalar the run measured; per-mode figures are
	// dotted ("off.kops_per_sec").
	Metrics map[string]float64 `json:"metrics"`
	Gates   []Gate             `json:"gates"`
	// Detail holds the experiment's series and scenario tables.
	Detail any `json:"detail,omitempty"`
	// Artifacts lists the files written alongside the report.
	Artifacts []string `json:"artifacts,omitempty"`
}

// measurement is what an experiment hands the harness after one run.
type measurement struct {
	config  map[string]any
	metrics map[string]float64
	detail  any
	// csvs are the contents of the experiment's declared series files,
	// in declaration order.
	csvs [][]byte
}

// add folds one mode's trial into the metrics under "<mode>.".
func (m *measurement) add(mode string, t trial) {
	if m.metrics == nil {
		m.metrics = make(map[string]float64)
	}
	for k, v := range t {
		m.metrics[mode+"."+k] = v
	}
}

// experiment is one runnable artifact. run prints the paper-shaped rows
// to w; experiments with machine-readable output also return a
// measurement, which the harness gates and writes.
type experiment struct {
	run   func(sc Scale, w io.Writer) (*measurement, error)
	gates []Gate
	// csvs names the series files the measurement carries contents for.
	csvs []string
}

// rows adapts an experiment that only prints.
func rows(print func(sc Scale, w io.Writer) error) func(Scale, io.Writer) (*measurement, error) {
	return func(sc Scale, w io.Writer) (*measurement, error) { return nil, print(sc, w) }
}

// artifactsGate bounds "artifacts_nonempty", which the harness counts
// for every report: the series files with content, plus the report.
func artifactsGate(csvs int) Gate {
	return Gate{Name: "artifacts", Metric: "artifacts_nonempty", Op: ">=", Budget: float64(csvs + 1)}
}

// runOnce measures the experiment once, evaluates its gates, prints the
// gate table and, unless outDir is empty, writes the series files and
// BENCH_<exp>.json. A nil report means the experiment only prints.
func (e experiment) runOnce(exp Experiment, sc Scale, w io.Writer, outDir string) (*Report, error) {
	m, err := e.run(sc, w)
	if err != nil || m == nil {
		return nil, err
	}
	rep := &Report{
		Experiment: exp,
		Scale:      sc,
		Config:     m.config,
		Metrics:    m.metrics,
		Detail:     m.detail,
	}
	nonempty := 1 // the report itself
	for i := range e.csvs {
		if len(m.csvs[i]) > 0 {
			nonempty++
		}
	}
	rep.Metrics["artifacts_nonempty"] = float64(nonempty)

	if len(e.gates) > 0 {
		fmt.Fprintf(w, "%-20s %14s %-2s %8s  %s\n", "Gate", "measured", "op", "budget", "result")
	}
	for _, g := range e.gates {
		v, ok := rep.Metrics[g.Metric]
		g.Measured, g.Pass = v, ok && g.holds(v)
		rep.Gates = append(rep.Gates, g)
		result := "pass"
		if !g.Pass {
			result = "FAIL"
		}
		if g.Timing {
			result += " (timing)"
		}
		fmt.Fprintf(w, "%-20s %14.3f %-2s %8g  %s\n", g.Name, g.Measured, g.Op, g.Budget, result)
	}

	if outDir == "" {
		return rep, nil
	}
	for _, name := range e.csvs {
		rep.Artifacts = append(rep.Artifacts, filepath.Join(outDir, name))
	}
	reportPath := filepath.Join(outDir, "BENCH_"+string(exp)+".json")
	rep.Artifacts = append(rep.Artifacts, reportPath)
	var doc bytes.Buffer
	enc := json.NewEncoder(&doc)
	enc.SetEscapeHTML(false) // gate ops are "<=" and ">="
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	for i := range e.csvs {
		if err := writeArtifact(w, rep.Artifacts[i], m.csvs[i]); err != nil {
			return nil, err
		}
	}
	return rep, writeArtifact(w, reportPath, doc.Bytes())
}

// runGated is the gate policy: a run that misses a hard gate fails at
// once; a run that misses only timing gates is re-run once, and fails
// if the second run misses any gate.
func (e experiment) runGated(exp Experiment, sc Scale, w io.Writer, outDir string) error {
	for attempt := 1; ; attempt++ {
		rep, err := e.runOnce(exp, sc, w, outDir)
		if err != nil || rep == nil {
			return err
		}
		var missed []string
		hard := false
		for _, g := range rep.Gates {
			if !g.Pass {
				missed = append(missed, g.Name)
				hard = hard || !g.Timing
			}
		}
		if len(missed) == 0 {
			return nil
		}
		if hard || attempt == 2 {
			return fmt.Errorf("bench: %s: gates missed: %s", exp, strings.Join(missed, ", "))
		}
		fmt.Fprintf(w, "timing gates missed (%s); re-running once\n", strings.Join(missed, ", "))
	}
}
