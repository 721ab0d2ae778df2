package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"tebis/internal/admission"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/obs"
)

// This file is the tail-latency attribution experiment (ExpTail,
// DESIGN.md §11): the adversarial traffic layer (traffic.go) drives a
// replicated cluster with tracing at an elevated sample rate, and the
// report decomposes every tenant's tail into the pipeline stages
// (client queue → dispatch → apply → ship → ack), retains exemplar
// trace IDs for the worst offenders, and quantifies what signal-driven
// admission control buys back during a flash burst versus the
// fixed-knob baseline.

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

// TailGate holds the tail-smoke acceptance numbers under uniquely-named
// keys so shell gates can extract them with a one-line sed.
type TailGate struct {
	// OverheadPercent is the offered-load cost of the full observability
	// stack (elevated-rate tracing + stage records + scrape loop):
	// throughput lost at a fixed paced rate — budget ≤ 5%, matching the
	// observability experiment's acceptance metric.
	OverheadPercent float64 `json:"overhead_percent"`
	// OverheadUnpacedPercent is the same comparison issuing unpaced
	// (saturating): the raw hot-path tax, reported but not gated — on a
	// saturated single core every sampled op's span records come straight
	// out of throughput.
	OverheadUnpacedPercent float64 `json:"overhead_unpaced_percent"`
	// PreBurstP99Us is the victim tenant's put p99 before the burst
	// window opens on the adaptive cluster (recovery after the burst is
	// excluded, so the baseline is undisturbed).
	PreBurstP99Us float64 `json:"pre_burst_p99_us"`
	// FixedBurstP99Us and AdaptiveBurstP99Us are the victim's put p99
	// inside the burst window with the fixed-knob versus the adaptive
	// controller — budget: adaptive ≤ 3x pre-burst.
	FixedBurstP99Us    float64 `json:"fixed_burst_p99_us"`
	AdaptiveBurstP99Us float64 `json:"adaptive_burst_p99_us"`
	// TotalLostAcks counts acked writes that did not read back, summed
	// over every scenario and tenant — budget: zero.
	TotalLostAcks uint64 `json:"total_lost_acks"`
	// ExemplarsResolved counts exemplar trace IDs whose spans the
	// /debug/trace ring still held — budget: ≥ 1.
	ExemplarsResolved int `json:"exemplars_resolved"`
}

// TailReport is the BENCH_tail.json document.
type TailReport struct {
	SampleRate float64        `json:"sample_rate"`
	Gate       TailGate       `json:"gate"`
	Scenarios  []TailScenario `json:"scenarios"`
	CSVs       []string       `json:"csvs"`
}

// tailCluster is one instrumented cluster a tail scenario runs against.
type tailCluster struct {
	c      *cluster.Cluster
	tracer *obs.Tracer
	reg    *obs.Registry
}

// newTailCluster builds a 3-server replicated Send-Index cluster.
// adaptive selects the signal-driven admission controller; fixed keeps
// the controller registered (so the metric families exist) but pinned
// at the configured wake-up threshold. obsOn toggles the whole
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
	ac := admission.Config{
		HighWater: 200 * time.Microsecond,
		Window:    8,
		Disabled:  !adaptive,
	}
	cfg.Admission = &ac
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

// tailDur sizes one scenario window from the suite scale.
func tailDur(sc Scale) time.Duration {
	if sc.Ops <= QuickScale.Ops {
		return 900 * time.Millisecond
	}
	return 1800 * time.Millisecond
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

// tailOverhead measures the observability tax two ways, stack off (no
// tracer, sampling disabled) versus fully on (elevated-rate tracing,
// stage records, and a tight scrape loop): achieved throughput at the
// paced offered load the tail scenarios run — the gated metric,
// matching the observability experiment's acceptance criterion — and
// unpaced saturating throughput, the raw hot-path tax, reported but not
// gated. Three runs per mode, best each, to shrink scheduler noise.
func tailOverhead(sc Scale, dur time.Duration) (paced, unpaced float64, err error) {
	best := func(obsOn, pace bool) (float64, error) {
		spec := TenantSpec{ID: 1, Priority: 1, Pattern: PatternUniform, Concurrency: 4}
		if pace {
			spec.RateOps = 1800
			spec.Concurrency = 2
		}
		var top float64
		for i := 0; i < 3; i++ {
			tc, err := newTailCluster(sc, false, obsOn)
			if err != nil {
				return 0, err
			}
			var stop chan struct{}
			var done chan struct{}
			if obsOn {
				// Scrape continuously, like a Prometheus server with an
				// aggressive interval, so exposition costs are charged.
				stop, done = make(chan struct{}), make(chan struct{})
				go func() {
					tick := time.NewTicker(10 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							close(done)
							return
						case <-tick.C:
							_ = tc.reg.WritePrometheus(io.Discard)
						}
					}
				}()
			}
			res, err := RunTraffic(tc.c, []TenantSpec{spec}, dur, int64(100+i))
			if obsOn {
				close(stop)
				<-done
			}
			tc.Close()
			if err != nil {
				return 0, err
			}
			kops := float64(res.Tenants[0].Ops) / res.Elapsed.Seconds() / 1000
			if kops > top {
				top = kops
			}
		}
		return top, nil
	}
	loss := func(pace bool) (float64, error) {
		off, err := best(false, pace)
		if err != nil {
			return 0, err
		}
		on, err := best(true, pace)
		if err != nil {
			return 0, err
		}
		if off <= 0 {
			return 0, fmt.Errorf("bench: tail overhead: zero baseline throughput")
		}
		pct := (off - on) / off * 100
		if pct < 0 {
			pct = 0
		}
		return pct, nil
	}
	if paced, err = loss(true); err != nil {
		return 0, 0, err
	}
	if unpaced, err = loss(false); err != nil {
		return 0, 0, err
	}
	return paced, unpaced, nil
}

// runTail reproduces the tail-attribution figure (the repo's "Fig. 11",
// not a paper artifact): per-stage, per-tenant p50/p99 under uniform,
// zipfian, ramp, and flash-burst traffic, the flash burst run both
// fixed-knob and adaptive. Emits BENCH_fig11_tail.csv + BENCH_tail.json.
func runTail(sc Scale, w io.Writer, outDir string) error {
	dur := tailDur(sc)
	report := TailReport{SampleRate: tailSampleRate}

	adaptive, err := newTailCluster(sc, true, true)
	if err != nil {
		return err
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
			return fmt.Errorf("bench: tail %s: %w", s.name, err)
		}
		report.Scenarios = append(report.Scenarios, scen)
	}

	// The flash burst, adaptive first (same cluster), then the
	// fixed-knob baseline on an otherwise-identical cluster.
	burstAdaptive, err := runTailScenario(adaptive, "flash-burst-adaptive", true, tailBurstSpecs(dur), dur, 10)
	if err != nil {
		return fmt.Errorf("bench: tail flash-burst adaptive: %w", err)
	}
	report.Scenarios = append(report.Scenarios, burstAdaptive)

	fixed, err := newTailCluster(sc, false, true)
	if err != nil {
		return err
	}
	burstFixed, err := runTailScenario(fixed, "flash-burst-fixed", false, tailBurstSpecs(dur), dur, 10)
	fixed.Close()
	if err != nil {
		return fmt.Errorf("bench: tail flash-burst fixed: %w", err)
	}
	report.Scenarios = append(report.Scenarios, burstFixed)

	overhead, overheadUnpaced, err := tailOverhead(sc, dur/2)
	if err != nil {
		return err
	}

	report.Gate = tailGate(&report, overhead)
	report.Gate.OverheadUnpacedPercent = overheadUnpaced
	printTail(w, &report)
	if outDir == "" {
		return nil
	}
	return writeTailArtifacts(w, outDir, &report)
}

// tailGate derives the acceptance numbers from the collected scenarios.
func tailGate(report *TailReport, overhead float64) TailGate {
	g := TailGate{OverheadPercent: overhead}
	for _, scen := range report.Scenarios {
		for _, t := range scen.Tenants {
			g.TotalLostAcks += t.LostAcks
			if t.Tenant == "t1" {
				switch scen.Name {
				case "flash-burst-adaptive":
					g.PreBurstP99Us = t.PreP99Us
					g.AdaptiveBurstP99Us = t.BurstP99Us
				case "flash-burst-fixed":
					g.FixedBurstP99Us = t.BurstP99Us
				}
			}
		}
		for _, ex := range scen.Exemplars {
			if ex.Resolved {
				g.ExemplarsResolved++
			}
		}
	}
	return g
}

// writeTailArtifacts emits BENCH_fig11_tail.csv and BENCH_tail.json.
func writeTailArtifacts(w io.Writer, outDir string, report *TailReport) error {
	var csv strings.Builder
	csv.WriteString("scenario,tenant,stage,count,p50_us,p99_us\n")
	for _, scen := range report.Scenarios {
		for _, r := range scen.Stages {
			fmt.Fprintf(&csv, "%s,%s,%s,%d,%.1f,%.1f\n",
				r.Scenario, r.Tenant, r.Stage, r.Count, r.P50Us, r.P99Us)
		}
	}
	path := filepath.Join(outDir, "BENCH_fig11_tail.csv")
	if err := writeArtifact(w, path, []byte(csv.String())); err != nil {
		return err
	}
	report.CSVs = append(report.CSVs, path)
	return writeReport(w, outDir, ExpTail, report)
}

// printTail writes the human-readable summary.
func printTail(w io.Writer, report *TailReport) {
	fmt.Fprintf(w, "Tail attribution: per-stage/per-tenant p99 under adversarial traffic (sample rate %.3f)\n",
		report.SampleRate)
	fmt.Fprintf(w, "%-22s %-4s %-12s %8s %10s %10s %10s %8s\n",
		"Scenario", "Ten", "Pattern", "Acked", "pre p99", "burst p99", "shed", "lost")
	for _, scen := range report.Scenarios {
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
	g := report.Gate
	fmt.Fprintf(w, "burst victim p99: pre-burst %.0fµs, fixed-knob %.0fµs, adaptive %.0fµs\n",
		g.PreBurstP99Us, g.FixedBurstP99Us, g.AdaptiveBurstP99Us)
	fmt.Fprintf(w, "observability overhead: %.2f%% offered-load (%.2f%% unpaced); lost acks: %d; exemplars resolved: %d\n",
		g.OverheadPercent, g.OverheadUnpacedPercent, g.TotalLostAcks, g.ExemplarsResolved)
}
