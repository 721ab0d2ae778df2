// Command benchmark is the repository's one performance benchmark
// (ISSUE 11, BENCHMARK.json): four YCSB workloads driven closed loop
// through an in-process Send-Index cluster, end-to-end metrics with
// tracing off, and a per-layer ladder with tracing on. README.md in
// this directory is the catalogue of workloads and metrics.
//
//	go run ./benchmark -workload load_sd -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -seed 1 -out results.json      # all four workloads
//	go run ./benchmark -compare base.json change.json
//
// The driver goes through run.sh, which builds this package inside the
// checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: load_sd, read_zipf, mixed_small, scan_short, or all (each in a process of its own)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", defaultSeconds, "measured op counts are sized to take about this long on the seed commit")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the ladder")
	out := fs.String("out", "", "result file to append this run to (JSON)")
	traceDir := fs.String("trace-dir", "benchmark/out", "directory for trace-<workload>.jsonl span files")
	cmp := fs.Bool("compare", false, "compare two result files: -compare BASE.json CHANGE.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare BASE.json CHANGE.json")
			return 2
		}
		worse, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	if *workload == "all" {
		return runAll([]string{
			"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds),
			"-trace", strconv.Itoa(*trace), "-out", *out, "-trace-dir", *traceDir,
		}, stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	runtime.GOMAXPROCS(numProcs)
	sz := sizesFor(w, *seconds)
	var m *measurement
	var err error
	if *trace == 1 {
		m, err = runTraced(w, sz, *seed, *seconds, *traceDir)
	} else {
		m, err = runUntraced(w, sz, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	rec := runRecord{
		Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Correct: m.Failed == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: m.Metrics,
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	printTable(stdout, rec)
	if err := printResultLine(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if m.Failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed or returned a wrong value\n", w.Name, m.Failed, m.Attempted)
		return 1
	}
	return 0
}

// printResultLine writes the driver's contract: one JSON object with
// exactly correct, attempted, failed and metrics (value and unit).
func printResultLine(out io.Writer, rec runRecord) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	for name, mv := range rec.Metrics {
		line.Metrics[name] = valueUnit{mv.Value, mv.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

// runAll runs every workload in a process of its own, so each gets the
// fresh heap a single-workload invocation has and mem_sys_mb means the
// same thing either way. It waits for each child before the next.
func runAll(flags []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, flags...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}
