// Command tebis-bench regenerates the tables and figures of the Tebis
// paper's evaluation (EuroSys '22, §5) on the in-process reproduction.
//
// Usage:
//
//	tebis-bench [-experiment all|table2,fig6,fig7a,fig7b,fig8,table3,fig9a,fig9b,fig10a,fig10b,sec55,compaction,observability,integrity,figures,tail,gc,lag]
//	            [-records N] [-ops N] [-l0 N] [-quick] [-out-dir DIR]
//
// Experiments with machine-readable output (compaction, observability,
// integrity, figures, tail, gc, lag) write one bench.Report as
// BENCH_<experiment>.json, plus their BENCH_fig*.csv series, into
// -out-dir (default "."). Each declares its acceptance gates in
// internal/bench; tebis-bench prints the gate table and exits non-zero
// when a gate is missed (a run that misses only timing gates is re-run
// once first). EXPERIMENTS.md lists every gate.
//
// Each experiment prints rows shaped like the paper's artifact:
// throughput (Kops/s), efficiency (Kcycles/op), I/O amplification, and
// network amplification per configuration; Figure 8 prints latency
// percentiles and Table 3 the cycles/op component breakdown. Absolute
// values are not comparable to the paper's testbed (see DESIGN.md
// "Packages and substitutions"); the relative comparisons are the
// reproduction target, recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tebis/internal/bench"
)

func main() {
	var (
		expFlag = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		records = flag.Uint64("records", 0, "Load A record count (0 = scale default)")
		ops     = flag.Uint64("ops", 0, "Run phase op count (0 = scale default)")
		l0      = flag.Int("l0", 0, "per-region L0 capacity in keys (0 = scale default)")
		quick   = flag.Bool("quick", false, "use the quick scale (smaller runs)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		outDir  = flag.String("out-dir", ".",
			"directory for BENCH_<experiment>.json reports and BENCH_fig*.csv series (empty = no files)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.AllExperiments {
			fmt.Println(e)
		}
		return
	}

	sc := bench.FullScale
	if *quick {
		sc = bench.QuickScale
	}
	if *records != 0 {
		sc.Records = *records
	}
	if *ops != 0 {
		sc.Ops = *ops
	}
	if *l0 != 0 {
		sc.L0MaxKeys = *l0
	}

	var exps []bench.Experiment
	if *expFlag == "all" {
		exps = bench.AllExperiments
	} else {
		for _, s := range strings.Split(*expFlag, ",") {
			exps = append(exps, bench.Experiment(strings.TrimSpace(s)))
		}
	}

	for i, exp := range exps {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := bench.RunExperiment(exp, sc, os.Stdout, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "tebis-bench: %s: %v\n", exp, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", exp, time.Since(start).Round(time.Millisecond))
	}
}
