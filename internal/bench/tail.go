package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tebis/internal/admission"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/obs"
)

// This file is the tail-latency attribution experiment (ExpTail,
// DESIGN.md "Observability"): the adversarial traffic layer (traffic.go)
// drives a replicated cluster with tracing at an elevated sample rate,
// and the report decomposes every tenant's tail into the pipeline
// stages (client queue → dispatch → apply → ship → ack), retains
// exemplar trace IDs for the worst offenders, and quantifies what
// signal-driven admission control buys back during a flash burst versus
// the fixed-knob baseline.

// tailSampleRate is the elevated trace-sampling probability the tail
// runs use: 1/8 gives the stage histograms and the admission
// controller's EWMA enough signal inside a sub-second burst window,
// at an instrumentation cost the overhead gate still bounds.
const tailSampleRate = 1.0 / 8

// TailStageRow is one (scenario, tenant, stage) series: a
// BENCH_fig11_tail.csv row.
type TailStageRow struct {
	Scenario string  `json:"scenario"`
	Tenant   string  `json:"tenant"`
	Stage    string  `json:"stage"`
	Count    uint64  `json:"count"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
}

// TailExemplar is one retained worst-offender sample: a trace ID whose
// request-level fan-out is resolvable via /debug/trace (Resolved says
// the span ring still held it at snapshot time).
type TailExemplar struct {
	Scenario string  `json:"scenario"`
	Stage    string  `json:"stage"`
	Tenant   string  `json:"tenant"`
	TraceID  uint64  `json:"trace_id"`
	DurUs    float64 `json:"dur_us"`
	Resolved bool    `json:"resolved"`
}

// TailTenant is one tenant's client-side outcome in one scenario.
type TailTenant struct {
	Tenant          string `json:"tenant"`
	Pattern         string `json:"pattern"`
	Priority        uint8  `json:"priority"`
	Ops             uint64 `json:"ops"`
	Acked           uint64 `json:"acked"`
	Rejected        uint64 `json:"rejected"`
	OverloadRetries uint64 `json:"overload_retries"`
	LostAcks        uint64 `json:"lost_acks"`
	// Pre is the undisturbed baseline (everything, for burst-less
	// patterns); Burst the in-burst window; Post the recovery after it.
	PreP50Us   float64 `json:"pre_p50_us"`
	PreP99Us   float64 `json:"pre_p99_us"`
	BurstP50Us float64 `json:"burst_p50_us,omitempty"`
	BurstP99Us float64 `json:"burst_p99_us,omitempty"`
	PostP50Us  float64 `json:"post_p50_us,omitempty"`
	PostP99Us  float64 `json:"post_p99_us,omitempty"`
}

// TailScenario is one traffic scenario's full outcome.
type TailScenario struct {
	Name      string         `json:"name"`
	Adaptive  bool           `json:"adaptive"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Tenants   []TailTenant   `json:"tenants"`
	Stages    []TailStageRow `json:"stages"`
	Exemplars []TailExemplar `json:"exemplars"`
	// Shed and Delayed total the admission actions across tenants.
	Shed    uint64 `json:"shed"`
	Delayed uint64 `json:"delayed"`
	// Tightens counts threshold-tightening adjustments the controller
	// made during the scenario.
	Tightens uint64 `json:"tightens"`
}

// tailCSV is the per-(scenario, tenant, stage) attribution table.
const tailCSV = "BENCH_fig11_tail.csv"

// tailGates is the tail acceptance: shedding may refuse work but never
// lose acknowledged work (a single loss fails, no retry); the full
// observability stack — elevated-rate tracing, stage records, a tight
// scrape loop — costs at most 5% of paced offered-load throughput; with
// adaptive admission on, the victim tenant's under-burst put p99 stays
// within 3x its pre-burst baseline; at least one stage exemplar resolves
// back to a full trace in the span ring (the "find the p99 offender"
// loop closes end to end); and the CSV covers the uniform, zipfian and
// flash-burst-adaptive scenarios and both tenants.
var tailGates = []Gate{
	{Name: "lost-acks", Metric: "total_lost_acks", Op: "==", Budget: 0},
	{Name: "overhead", Metric: "overhead_percent", Op: "<=", Budget: 5, Timing: true},
	{Name: "burst-p99", Metric: "adaptive_burst_p99_over_pre", Op: "<=", Budget: 3, Timing: true},
	{Name: "exemplars", Metric: "exemplars_resolved", Op: ">=", Budget: 1},
	{Name: "csv-scenarios", Metric: "csv_scenarios_covered", Op: ">=", Budget: 3},
	{Name: "csv-tenants", Metric: "csv_tenants_covered", Op: ">=", Budget: 2},
	artifactsGate(1),
}

// tailCluster is one instrumented cluster a tail scenario runs against.
type tailCluster struct {
	c      *cluster.Cluster
	tracer *obs.Tracer
	reg    *obs.Registry
}

// newTailCluster builds a 3-server replicated Send-Index cluster.
// adaptive selects the signal-driven admission controller; fixed runs
// with admission off (no controller), at the configured wake-up
// threshold. obsOn toggles the whole
// observability stack, for the overhead comparison.
func newTailCluster(sc Scale, adaptive, obsOn bool) (*tailCluster, error) {
	tc := &tailCluster{}
	cfg := cluster.Config{
		Servers:     3,
		Regions:     6,
		Replicas:    1,
		Mode:        SendIndex.Mode(),
		SegmentSize: 64 << 10,
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    sc.L0MaxKeys,
			MaxLevels:    7,
		},
		TraceSampleRate: -1,
	}
	if obsOn {
		// A larger ring than the default so burst-window exemplars are
		// still resolvable after the post-burst tail of sampled traffic.
		tc.tracer = obs.NewTracerBytes(16384, 4<<20)
		cfg.Trace = tc.tracer
		cfg.TraceSampleRate = tailSampleRate
	}
	if adaptive {
		cfg.Admission = &admission.Config{HighWater: 200 * time.Microsecond, Window: 8}
	}
	var err error
	if tc.c, err = cluster.New(cfg); err != nil {
		return nil, err
	}
	if obsOn {
		tc.reg = obs.NewRegistry()
		tc.c.Observe(tc.reg)
	}
	return tc, nil
}

func (tc *tailCluster) Close() { tc.c.Close() }

// admissionTotals sums the controller counters across the cluster's
// servers.
func (tc *tailCluster) admissionTotals() (shed, delayed, tightens uint64) {
	for _, n := range tc.c.Nodes {
		snap := n.Server.Admission().Snapshot()
		tightens += snap.Tightens
		for _, v := range snap.Shed {
			shed += v
		}
		for _, v := range snap.Delayed {
			delayed += v
		}
	}
	return
}

// runTailScenario drives one traffic scenario and snapshots the shared
// stage set into rows and exemplars. The stage set is reset first so
// each scenario's attribution stands alone.
func runTailScenario(tc *tailCluster, name string, adaptive bool, specs []TenantSpec, dur time.Duration, seed int64) (TailScenario, error) {
	tc.c.Stages().Reset()
	shed0, delayed0, tight0 := tc.admissionTotals()
	res, err := RunTraffic(tc.c, specs, dur, seed)
	if err != nil {
		return TailScenario{}, err
	}
	scen := TailScenario{
		Name:      name,
		Adaptive:  adaptive,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	shed1, delayed1, tight1 := tc.admissionTotals()
	scen.Shed, scen.Delayed, scen.Tightens = shed1-shed0, delayed1-delayed0, tight1-tight0

	for _, t := range res.Tenants {
		tt := TailTenant{
			Tenant:          t.Spec.Label(),
			Pattern:         t.Spec.Pattern.String(),
			Priority:        t.Spec.Priority,
			Ops:             t.Ops,
			Acked:           t.Acked,
			Rejected:        t.Rejected,
			OverloadRetries: t.OverloadRetries,
			LostAcks:        t.LostAcks,
			PreP50Us:        float64(t.Pre.Percentile(50).Nanoseconds()) / 1e3,
			PreP99Us:        float64(t.Pre.Percentile(99).Nanoseconds()) / 1e3,
		}
		if t.Burst.Count() > 0 {
			tt.BurstP50Us = float64(t.Burst.Percentile(50).Nanoseconds()) / 1e3
			tt.BurstP99Us = float64(t.Burst.Percentile(99).Nanoseconds()) / 1e3
		}
		if t.Post.Count() > 0 {
			tt.PostP50Us = float64(t.Post.Percentile(50).Nanoseconds()) / 1e3
			tt.PostP99Us = float64(t.Post.Percentile(99).Nanoseconds()) / 1e3
		}
		scen.Tenants = append(scen.Tenants, tt)
	}

	// Resolvability: an exemplar is good if the span ring still holds
	// request spans under its trace ID (what /debug/trace serves).
	ids := make(map[uint64]bool)
	if tc.tracer != nil {
		for _, sp := range tc.tracer.Snapshot() {
			if sp.Req != 0 {
				ids[sp.Req] = true
			}
		}
	}
	for _, snap := range tc.c.Stages().Snapshot() {
		scen.Stages = append(scen.Stages, TailStageRow{
			Scenario: name,
			Tenant:   snap.Tenant,
			Stage:    snap.Stage,
			Count:    snap.Count,
			P50Us:    float64(snap.Percentiles[0].Nanoseconds()) / 1e3,
			P99Us:    float64(snap.Percentiles[2].Nanoseconds()) / 1e3,
		})
		for _, ex := range snap.Exemplars {
			scen.Exemplars = append(scen.Exemplars, TailExemplar{
				Scenario: name,
				Stage:    snap.Stage,
				Tenant:   snap.Tenant,
				TraceID:  ex.TraceID,
				DurUs:    float64(ex.Dur.Nanoseconds()) / 1e3,
				Resolved: ids[ex.TraceID],
			})
		}
	}
	return scen, nil
}

// tailDur sizes one scenario window from the suite scale: 900ms at
// QuickScale, capped at twice that.
func tailDur(sc Scale) time.Duration {
	return min(time.Duration(sc.Ops)*150*time.Microsecond, 1800*time.Millisecond)
}

// tailSteadySpecs is the two-tenant mix the steady scenarios share:
// t1 is the measured tenant (pattern varies), t2 a lower-priority
// background tenant.
func tailSteadySpecs(p Pattern, theta float64) []TenantSpec {
	return []TenantSpec{
		{ID: 1, Priority: 1, Pattern: p, Theta: theta, RateOps: 1200, Concurrency: 2},
		{ID: 2, Priority: 0, Pattern: PatternUniform, RateOps: 600, Concurrency: 1},
	}
}

// tailBurstSpecs is the flash-burst scenario: t1 is the steady victim
// (BurstX == 1 marks its measurement window without changing its
// rate), t2 the low-priority aggressor whose flash crowd issues
// unpaced for the middle third of the run.
func tailBurstSpecs(dur time.Duration) []TenantSpec {
	start, width := dur/3, dur/3
	return []TenantSpec{
		{ID: 1, Priority: 1, Pattern: PatternFlashBurst, RateOps: 800, Concurrency: 2,
			BurstX: 1, BurstStart: start, BurstDur: width},
		{ID: 2, Priority: 0, Pattern: PatternFlashBurst, RateOps: 400, Concurrency: 2,
			BurstX: -1, BurstConcurrency: 24, BurstStart: start, BurstDur: width},
	}
}

// runTailOverheadMode drives one uniform tenant for dur at opsPerSec
// (0 = saturating) against a fixed-knob cluster with the observability
// stack off (no tracer, sampling disabled) or fully on (elevated-rate
// tracing, stage records, and a tight scrape loop).
func runTailOverheadMode(sc Scale, dur time.Duration, obsOn bool, opsPerSec float64) (trial, error) {
	tc, err := newTailCluster(sc, false, obsOn)
	if err != nil {
		return nil, err
	}
	defer tc.Close()
	if obsOn {
		defer scrapeLoop(tc.reg)()
	}
	spec := TenantSpec{ID: 1, Priority: 1, Pattern: PatternUniform, RateOps: opsPerSec, Concurrency: 4}
	res, err := RunTraffic(tc.c, []TenantSpec{spec}, dur, 100)
	if err != nil {
		return nil, err
	}
	return trial{kopsKey: float64(res.Tenants[0].Ops) / res.Elapsed.Seconds() / 1000}, nil
}

// runTail reproduces the tail-attribution figure (the repo's "Fig. 11",
// not a paper artifact): per-stage, per-tenant p50/p99 under uniform,
// zipfian, ramp, and flash-burst traffic, the flash burst run both
// fixed-knob and adaptive.
func runTail(sc Scale, w io.Writer) (*measurement, error) {
	dur := tailDur(sc)
	var scenarios []TailScenario

	adaptive, err := newTailCluster(sc, true, true)
	if err != nil {
		return nil, err
	}
	defer adaptive.Close()

	steady := []struct {
		name  string
		specs []TenantSpec
	}{
		{"uniform", tailSteadySpecs(PatternUniform, 0)},
		{"zipfian", tailSteadySpecs(PatternZipfian, 0.99)},
		{"ramp", tailSteadySpecs(PatternRamp, 0)},
	}
	for i, s := range steady {
		scen, err := runTailScenario(adaptive, s.name, true, s.specs, dur, int64(i+1))
		if err != nil {
			return nil, fmt.Errorf("bench: tail %s: %w", s.name, err)
		}
		scenarios = append(scenarios, scen)
	}

	// The flash burst, adaptive first (same cluster), then the
	// fixed-knob baseline on an otherwise-identical cluster.
	burstAdaptive, err := runTailScenario(adaptive, "flash-burst-adaptive", true, tailBurstSpecs(dur), dur, 10)
	if err != nil {
		return nil, fmt.Errorf("bench: tail flash-burst adaptive: %w", err)
	}
	fixed, err := newTailCluster(sc, false, true)
	if err != nil {
		return nil, err
	}
	burstFixed, err := runTailScenario(fixed, "flash-burst-fixed", false, tailBurstSpecs(dur), dur, 10)
	fixed.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: tail flash-burst fixed: %w", err)
	}
	scenarios = append(scenarios, burstAdaptive, burstFixed)

	// The observability tax: the saturating pair is the raw hot-path
	// tax, reported but not gated — on a saturated single core every
	// sampled op's span records come straight out of throughput.
	off, on, loss, err := pacedAB(func(on bool, opsPerSec float64) (trial, error) {
		return runTailOverheadMode(sc, dur/2, on, opsPerSec)
	})
	if err != nil {
		return nil, err
	}

	m := &measurement{
		config: map[string]any{"sample_rate": tailSampleRate},
		detail: map[string][]TailScenario{"scenarios": scenarios},
	}
	m.add("obs_off", off)
	m.add("obs_on", on)
	v := m.metrics
	v["overhead_percent"] = loss
	v["overhead_unpaced_percent"] = overheadPercent(off[kopsKey], on[kopsKey], true)
	v["total_lost_acks"], v["exemplars_resolved"] = 0, 0

	var csv strings.Builder
	csv.WriteString("scenario,tenant,stage,count,p50_us,p99_us\n")
	covered := map[string]bool{}
	for _, scen := range scenarios {
		for _, t := range scen.Tenants {
			// Acked writes that did not read back, over every scenario
			// and tenant.
			v["total_lost_acks"] += float64(t.LostAcks)
			// The victim tenant's put p99 before the burst window opens on
			// the adaptive cluster (recovery after the burst is excluded,
			// so the baseline is undisturbed) and inside it, with the
			// adaptive versus the fixed-knob controller.
			if t.Tenant == "t1" {
				switch scen.Name {
				case "flash-burst-adaptive":
					v["pre_burst_p99_us"] = t.PreP99Us
					v["adaptive_burst_p99_us"] = t.BurstP99Us
				case "flash-burst-fixed":
					v["fixed_burst_p99_us"] = t.BurstP99Us
				}
			}
		}
		for _, ex := range scen.Exemplars {
			if ex.Resolved {
				v["exemplars_resolved"]++
			}
		}
		for _, r := range scen.Stages {
			fmt.Fprintf(&csv, "%s,%s,%s,%d,%.1f,%.1f\n",
				r.Scenario, r.Tenant, r.Stage, r.Count, r.P50Us, r.P99Us)
			covered[r.Scenario], covered[r.Tenant] = true, true
		}
	}
	// A pre-burst p99 below 1µs is not measurable; clamp the divisor.
	v["adaptive_burst_p99_over_pre"] = v["adaptive_burst_p99_us"] / max(v["pre_burst_p99_us"], 1)
	count := func(names ...string) (n float64) {
		for _, name := range names {
			if covered[name] {
				n++
			}
		}
		return n
	}
	v["csv_scenarios_covered"] = count("uniform", "zipfian", "flash-burst-adaptive")
	v["csv_tenants_covered"] = count("t1", "t2")
	m.csvs = [][]byte{[]byte(csv.String())}

	fmt.Fprintf(w, "Tail attribution: per-stage/per-tenant p99 under adversarial traffic (sample rate %.3f)\n",
		tailSampleRate)
	fmt.Fprintf(w, "%-22s %-4s %-12s %8s %10s %10s %10s %8s\n",
		"Scenario", "Ten", "Pattern", "Acked", "pre p99", "burst p99", "shed", "lost")
	for _, scen := range scenarios {
		shed := fmt.Sprintf("%d", scen.Shed)
		for _, t := range scen.Tenants {
			burst := "-"
			if t.BurstP99Us > 0 {
				burst = fmt.Sprintf("%.0fµs", t.BurstP99Us)
			}
			fmt.Fprintf(w, "%-22s %-4s %-12s %8d %9.0fµs %10s %10s %8d\n",
				scen.Name, t.Tenant, t.Pattern, t.Acked, t.PreP99Us, burst, shed, t.LostAcks)
			shed = ""
		}
	}
	fmt.Fprintf(w, "burst victim p99: pre-burst %.0fµs, fixed-knob %.0fµs, adaptive %.0fµs\n",
		v["pre_burst_p99_us"], v["fixed_burst_p99_us"], v["adaptive_burst_p99_us"])
	fmt.Fprintf(w, "observability overhead: %.2f%% offered-load (%.2f%% unpaced); lost acks: %.0f; exemplars resolved: %.0f\n",
		loss, v["overhead_unpaced_percent"], v["total_lost_acks"], v["exemplars_resolved"])
	return m, nil
}
