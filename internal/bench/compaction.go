package bench

import (
	"fmt"
	"io"
)

// runCompactionMode loads sc.Records sequential keys into a bare engine
// with the given scheduler knobs at opsPerSec (0 = unpaced).
func runCompactionMode(sc Scale, workers, buffers int, opsPerSec float64) (trial, error) {
	e, err := openEngine(sc, workers, buffers, false, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	t, err := e.load(sc.Records, opsPerSec, e.put)
	if err != nil {
		return nil, err
	}
	t["compaction_workers"], t["l0_buffers"] = float64(workers), float64(buffers)
	t["offered_kops_per_sec"] = opsPerSec / 1000
	return t, nil
}

// runCompaction compares the paper-faithful serial compactor (one
// worker, one frozen L0) against the staged scheduler (two workers,
// double-buffered L0) under an identical offered load — half the serial
// engine's unpaced rate, where stalls measure scheduling, not raw
// compaction speed (see pacedAB) — and reports each mode's trial with
// the median writer-stall time of three.
func runCompaction(sc Scale, w io.Writer) (*measurement, error) {
	calib, err := runCompactionMode(sc, 1, 1, 0)
	if err != nil {
		return nil, err
	}
	rate := calib[kopsKey] * 1000 * 0.5
	m := &measurement{config: map[string]any{"value_size": loadValueSize}}

	fmt.Fprintf(w, "Compaction scheduler: serial vs pipelined (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %8s %10s %8s %8s\n",
		"Mode", "Kops/s", "p50 µs", "p99 µs", "Stalls", "Stall ms", "Jobs", "Overlap")
	for _, mode := range []struct {
		name             string
		workers, buffers int
	}{{"serial", 1, 1}, {"pipelined", 2, 2}} {
		t, err := medianOf3("writer_stall_millis", func() (trial, error) {
			return runCompactionMode(sc, mode.workers, mode.buffers, rate)
		})
		if err != nil {
			return nil, err
		}
		m.add(mode.name, t)
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f %8.0f %10.1f %8.0f %7.0f%%\n",
			mode.name, t[kopsKey], t["p50_put_micros"], t["p99_put_micros"],
			t["writer_stalls"], t["writer_stall_millis"], t["jobs"], 100*t["overlap_fraction"])
	}
	return m, nil
}
