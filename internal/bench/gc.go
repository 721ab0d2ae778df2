package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
)

// gcRounds is the overwrite factor: every key is rewritten this many
// times, so without GC the log holds ~gcRounds copies per key.
const gcRounds = 10

// gcValueSize keeps records large enough that value bytes dominate the
// log (the paper's GC cost is value movement, not header overhead).
const gcValueSize = 128

// gcKeeper marks keys written only in the first round: the live
// records GC must relocate out of otherwise-dead victim segments.
func gcKeeper(i uint64) bool { return i%10 == 0 }

// gcCSV is the per-round space series, both modes.
const gcCSV = "BENCH_fig12_space.csv"

// gcGates is the overwrite-endurance acceptance (DESIGN.md "Value-log
// GC"): under a 10x overwrite workload, online GC must hold steady-state
// log occupancy within 2x the live data while costing at most 10% of
// offered-load throughput versus GC off.
var gcGates = []Gate{
	{Name: "space-amp", Metric: "space_amp", Op: "<=", Budget: 2},
	{Name: "cost", Metric: "overhead_offered_load_percent", Op: "<=", Budget: 10, Timing: true},
	artifactsGate(1),
}

// GCSpaceSample is one point of the space time series, taken after each
// overwrite round (and the GC pass that follows it, when GC is on).
type GCSpaceSample struct {
	Round        int     `json:"round"`
	LiveBytes    uint64  `json:"live_bytes"`
	DeadBytes    uint64  `json:"dead_bytes"`
	TrimmedBytes uint64  `json:"trimmed_bytes"`
	SpaceAmp     float64 `json:"amp"`
	LogSegments  int     `json:"log_segments"`
}

func gcKeys(sc Scale) uint64 { return max(sc.Records/gcRounds, 200) }

// runGCMode drives gcRounds whole-keyspace overwrite rounds against a
// bare framed engine, with online GC off (the log grows one copy per
// overwrite) or on (a cost-based pass every other round holds occupancy
// near the live set; pass accounting goes to stats). It returns the
// trial and the per-round space series. The run fails if any key reads
// back a stale value afterwards — GC must never serve wrong data to earn
// its space numbers.
func runGCMode(sc Scale, gcOn bool, opsPerSec float64) (trial, []GCSpaceSample, error) {
	keys := gcKeys(sc)
	e, err := openEngine(sc, true, nil)
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	db := e.db

	stats := &metrics.GCStats{}
	policy := lsm.GCPolicy{MinDeadRatio: 0.5, MaxSegments: 16, Stats: stats}
	val := make([]byte, gcValueSize)

	var series []GCSpaceSample
	space := func(round int) GCSpaceSample {
		rep := db.Log().SpaceReport()
		s := GCSpaceSample{
			Round:        round,
			LiveBytes:    rep.Live,
			DeadBytes:    rep.Dead,
			TrimmedBytes: rep.Trimmed,
			LogSegments:  len(db.Log().Segments()),
		}
		if rep.Live > 0 {
			s.SpaceAmp = float64(rep.Live+rep.Dead) / float64(rep.Live)
		}
		return s
	}

	p := newPacer(opsPerSec)
	start := time.Now()
	var ops uint64
	for round := 0; round < gcRounds; round++ {
		for i := uint64(0); i < keys; i++ {
			// Keepers stay at their round-0 value, pinning live records
			// inside the mostly-dead victims GC has to relocate from.
			if round > 0 && gcKeeper(i) {
				continue
			}
			for j := range val {
				val[j] = byte('a' + (round+int(i)+j)%26)
			}
			p.arrive()
			if err := db.Put(loadKey(i), val); err != nil {
				return nil, nil, err
			}
			ops++
		}
		if gcOn && round%2 == 1 && round < gcRounds-1 {
			// The GC cadence under test: one cost-based pass every other
			// round, inline with the workload so its cost lands on the
			// clock (the server's gcLoop runs the same pass on a timer).
			// No pass after the final round — with no load left to serve,
			// its cost belongs to the untimed steady-state drain below.
			if _, err := db.GCOnce(policy); err != nil {
				return nil, nil, err
			}
		}
		series = append(series, space(round))
	}
	elapsed := time.Since(start)

	// Steady state: drain compactions, then run GC to its fixed point —
	// the occupancy a continuously ticking server gcLoop converges to.
	// MaxSegments bounds one pass's write amplification, not the total.
	if err := db.CompactAll(); err != nil {
		return nil, nil, err
	}
	if gcOn {
		for i := 0; i < 64; i++ {
			gr, err := db.GCOnce(policy)
			if err != nil {
				return nil, nil, err
			}
			if gr.SegmentsFreed == 0 {
				break
			}
		}
	}
	final := space(gcRounds)
	snap := stats.Snapshot()
	t := newTrial(ops, elapsed)
	t["final_space_amp"] = final.SpaceAmp
	t["live_bytes"] = float64(final.LiveBytes)
	t["dead_bytes"] = float64(final.DeadBytes)
	t["trimmed_bytes"] = float64(final.TrimmedBytes)
	t["log_segments"] = float64(final.LogSegments)
	t["gc_passes"] = float64(snap.Passes)
	t["gc_segments_freed"] = float64(snap.SegmentsFreed)
	t["gc_records_moved"] = float64(snap.RecordsMoved)
	t["gc_bytes_reclaimed"] = float64(snap.BytesReclaimed)

	// Zero wrong reads: every key must hold its newest value — the
	// round-0 write for keepers (possibly relocated several times), the
	// final-round overwrite for everything else.
	want := make([]byte, gcValueSize)
	for i := uint64(0); i < keys; i++ {
		round := gcRounds - 1
		if gcKeeper(i) {
			round = 0
		}
		for j := range want {
			want[j] = byte('a' + (round+int(i)+j)%26)
		}
		got, found, err := db.Get(loadKey(i))
		if err != nil || !found {
			return nil, nil, fmt.Errorf("bench: gc: key %d unreadable after workload: found=%v err=%v", i, found, err)
		}
		if string(got) != string(want) {
			return nil, nil, fmt.Errorf("bench: gc: key %d reads a stale value after GC", i)
		}
	}
	return t, series, nil
}

// runGC measures the overwrite-endurance acceptance: space held by the
// value log with GC off vs on, and GC's cost at a fixed offered load.
func runGC(sc Scale, w io.Writer) (*measurement, error) {
	// The unpaced runs carry the space time series.
	series := map[bool][]GCSpaceSample{}
	off, on, loss, err := pacedAB(func(gcOn bool, opsPerSec float64) (trial, error) {
		t, s, err := runGCMode(sc, gcOn, opsPerSec)
		if opsPerSec == 0 {
			series[gcOn] = s
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	keys := gcKeys(sc)
	m := &measurement{
		config: map[string]any{"keys": keys, "rounds": gcRounds, "value_size": gcValueSize},
		detail: map[string][]GCSpaceSample{"gc_off": series[false], "gc_on": series[true]},
	}
	m.add("gc_off", off)
	m.add("gc_on", on)
	m.metrics["space_amp"] = on["final_space_amp"]
	m.metrics["overhead_offered_load_percent"] = loss

	fmt.Fprintf(w, "Online GC endurance: %dx overwrite of %d keys (%d B values, L0=%d keys)\n",
		gcRounds, keys, gcValueSize, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-8s %10s %12s %12s %10s %10s %8s\n",
		"Config", "ns/op", "Kops/s", "paced Kop/s", "live MB", "dead MB", "amp")
	var csv strings.Builder
	csv.WriteString("mode,round,live_bytes,dead_bytes,trimmed_bytes,space_amp,log_segments\n")
	for i, r := range []mode{{"gc-off", off}, {"gc-on", on}} {
		fmt.Fprintf(w, "%-8s %10.0f %12.1f %12.1f %10.2f %10.2f %8.2f\n",
			r.name, r.t["ns_per_op"], r.t[kopsKey], r.t["paced_kops_per_sec"],
			r.t["live_bytes"]/1e6, r.t["dead_bytes"]/1e6, r.t["final_space_amp"])
		for _, s := range series[i == 1] {
			fmt.Fprintf(&csv, "%s,%d,%d,%d,%d,%.3f,%d\n",
				r.name, s.Round, s.LiveBytes, s.DeadBytes, s.TrimmedBytes, s.SpaceAmp, s.LogSegments)
		}
	}
	fmt.Fprintf(w, "gc-on: %.0f passes, %.0f segments freed, %.0f records moved, %.2f MB reclaimed\n",
		on["gc_passes"], on["gc_segments_freed"], on["gc_records_moved"], on["gc_bytes_reclaimed"]/1e6)
	fmt.Fprintf(w, "space amplification %.2fx, offered-load cost %.2f%%\n", m.metrics["space_amp"], loss)
	m.csvs = [][]byte{[]byte(csv.String())}
	return m, nil
}
