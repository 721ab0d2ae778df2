package bench

import (
	"fmt"
	"io"
	"time"
)

// integrityGates: CRC32C framing on seals plus read verification may
// cost at most 5% of offered-load throughput versus the raw device.
var integrityGates = []Gate{
	{Name: "overhead", Metric: "overhead_offered_load_percent", Op: "<=", Budget: 5, Timing: true},
}

// runIntegrityMode loads sc.Records keys into a bare engine with the
// integrity layer off or on: when framed, the device is wrapped in
// storage.AsVerifying, so every log seal and index build pays the CRC32C
// trailer and every cold read pays a whole-segment verification.
func runIntegrityMode(sc Scale, framed bool, opsPerSec float64) (trial, error) {
	e, err := openEngine(sc, 2, 2, framed, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	t, err := e.load(sc.Records, opsPerSec, e.put)
	if err != nil {
		return nil, err
	}

	// Read-back pass: cold segments, so the framed run re-verifies each
	// segment once before serving from it.
	if reads := sc.Records / 4; reads > 0 {
		stride := sc.Records / reads
		start := time.Now()
		for i := uint64(0); i < reads; i++ {
			if _, _, err := e.db.Get(loadKey(i * stride)); err != nil {
				return nil, err
			}
		}
		t["get_ns_per_op"] = float64(time.Since(start).Nanoseconds()) / float64(reads)
	}
	return t, nil
}

// runIntegrity measures the checksum tax on the engine hot paths:
// unpaced put and get ns/op, and paced throughput at the same offered
// load — the acceptance metric.
func runIntegrity(sc Scale, w io.Writer) (*measurement, error) {
	raw, framed, loss, err := pacedAB(func(on bool, opsPerSec float64) (trial, error) {
		return runIntegrityMode(sc, on, opsPerSec)
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{config: map[string]any{"value_size": loadValueSize}}
	m.add("raw", raw)
	m.add("framed", framed)
	m.metrics["overhead_ns_per_op_percent"] = overheadPercent(raw["ns_per_op"], framed["ns_per_op"], false)
	m.metrics["overhead_get_ns_per_op_percent"] = overheadPercent(raw["get_ns_per_op"], framed["get_ns_per_op"], false)
	m.metrics["overhead_offered_load_percent"] = loss

	fmt.Fprintf(w, "Checksum-frame overhead on the engine hot paths (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %10s\n",
		"Config", "ns/op", "Kops/s", "paced Kop/s", "p99 µs", "get ns/op")
	for _, r := range []mode{{"raw", raw}, {"framed", framed}} {
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %10.0f\n",
			r.name, r.t["ns_per_op"], r.t[kopsKey], r.t["paced_kops_per_sec"], r.t["p99_put_micros"], r.t["get_ns_per_op"])
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% get ns/op, %.2f%% offered-load throughput\n",
		m.metrics["overhead_ns_per_op_percent"], m.metrics["overhead_get_ns_per_op_percent"], loss)
	return m, nil
}
