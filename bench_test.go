// Package tebis_test holds one Go benchmark per table and figure of the
// paper's evaluation section, plus ablation benchmarks for the design
// choices called out in DESIGN.md "Data path". Each benchmark iteration
// runs a complete scaled-down experiment (cluster bring-up, YCSB phase over
// the RDMA protocol, metric collection) and reports the paper's metrics as
// custom benchmark outputs:
//
//	Kops/s        measured throughput
//	Kcycles/op    simulated CPU efficiency
//	io-amp        device_traffic / dataset_size
//	net-amp       network_traffic / dataset_size
//
// cmd/tebis-bench runs the same experiments at a larger scale and
// prints paper-shaped tables.
package tebis_test

import (
	"fmt"
	"sort"
	"testing"

	"tebis/internal/bench"
	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/ycsb"
)

// benchScale keeps `go test -bench` affordable while still driving
// multiple compaction rounds per region.
var benchScale = bench.Scale{Records: 8000, Ops: 4000, L0MaxKeys: 384}

// runExperiment executes one configuration b.N times and reports the
// paper's four metrics from the final run.
func runExperiment(b *testing.B, setup bench.Setup, wl ycsb.Workload, mix ycsb.SizeMix, replicas int) {
	b.Helper()
	var res bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Run(bench.Params{
			Setup:     setup,
			Workload:  wl,
			Mix:       mix,
			Records:   benchScale.Records,
			Ops:       benchScale.Ops,
			L0MaxKeys: benchScale.L0MaxKeys,
			Replicas:  replicas,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.KOpsPerSec, "Kops/s")
	b.ReportMetric(res.KCyclesPerOp, "Kcycles/op")
	b.ReportMetric(res.IOAmp, "io-amp")
	b.ReportMetric(res.NetAmp, "net-amp")
}

// setups2 are the two-way replication configurations of Figures 6-9.
var setups2 = []bench.Setup{bench.BuildIndex, bench.SendIndex, bench.NoReplication}

// BenchmarkFig6 reproduces Figure 6: throughput and efficiency for
// Load A and Run A-D under the SD mix with two-way replication.
func BenchmarkFig6(b *testing.B) {
	for _, wl := range []ycsb.Workload{ycsb.LoadA, ycsb.RunA, ycsb.RunB, ycsb.RunC, ycsb.RunD} {
		for _, setup := range setups2 {
			b.Run(fmt.Sprintf("%s/%s", wl, setup), func(b *testing.B) {
				runExperiment(b, setup, wl, ycsb.MixSD, 1)
			})
		}
	}
}

// BenchmarkFig7a reproduces Figure 7a: Load A over the six KV size
// mixes (throughput, efficiency, I/O amp, network amp).
func BenchmarkFig7a(b *testing.B) {
	for _, mix := range ycsb.AllMixes {
		for _, setup := range setups2 {
			b.Run(fmt.Sprintf("%s/%s", mix.Name, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.LoadA, mix, 1)
			})
		}
	}
}

// BenchmarkFig7b reproduces Figure 7b: Run A over the six mixes.
func BenchmarkFig7b(b *testing.B) {
	for _, mix := range ycsb.AllMixes {
		for _, setup := range setups2 {
			b.Run(fmt.Sprintf("%s/%s", mix.Name, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.RunA, mix, 1)
			})
		}
	}
}

// BenchmarkFig8 reproduces Figure 8: tail latency percentiles for
// Load A inserts and Run A reads/updates (SD mix). Percentile values
// are reported in microseconds as custom metrics.
func BenchmarkFig8(b *testing.B) {
	type batch struct {
		label string
		wl    ycsb.Workload
		kind  ycsb.OpKind
	}
	batches := []batch{
		{"LoadA-Insert", ycsb.LoadA, ycsb.OpInsert},
		{"RunA-Read", ycsb.RunA, ycsb.OpRead},
		{"RunA-Update", ycsb.RunA, ycsb.OpUpdate},
	}
	for _, bt := range batches {
		for _, setup := range []bench.Setup{bench.SendIndex, bench.BuildIndex, bench.NoReplication} {
			b.Run(fmt.Sprintf("%s/%s", bt.label, setup), func(b *testing.B) {
				var res bench.Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = bench.Run(bench.Params{
						Setup: setup, Workload: bt.wl, Mix: ycsb.MixSD,
						Records: benchScale.Records, Ops: benchScale.Ops,
						L0MaxKeys: benchScale.L0MaxKeys, Replicas: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				h := res.Latency[bt.kind]
				for _, p := range metrics.TailPercentiles {
					b.ReportMetric(float64(h.Percentile(p).Microseconds()), fmt.Sprintf("p%.4g-µs", p))
				}
			})
		}
	}
}

// BenchmarkTable3 reproduces Table 3: the cycles/op component breakdown
// for Load A (SD mix), reported per component as custom metrics.
func BenchmarkTable3(b *testing.B) {
	for _, setup := range []bench.Setup{bench.BuildIndex, bench.SendIndex} {
		b.Run(setup.String(), func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = bench.Run(bench.Params{
					Setup: setup, Workload: ycsb.LoadA, Mix: ycsb.MixSD,
					Records: benchScale.Records, L0MaxKeys: benchScale.L0MaxKeys,
					Replicas: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for comp := metrics.Component(0); comp < metrics.NumComponents; comp++ {
				b.ReportMetric(float64(res.Breakdown[comp]), fmt.Sprintf("cyc[%d]/op", comp))
			}
			b.ReportMetric(float64(res.Breakdown.Total()), "cyc-total/op")
		})
	}
}

// BenchmarkFig9a reproduces Figure 9a: Load A with rising small-KV
// percentages.
func BenchmarkFig9a(b *testing.B) {
	for _, pct := range []int{40, 60, 80, 100} {
		mix := ycsb.SmallPercentMix(pct)
		for _, setup := range setups2 {
			b.Run(fmt.Sprintf("small%d/%s", pct, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.LoadA, mix, 1)
			})
		}
	}
}

// BenchmarkFig9b reproduces Figure 9b: Run A with rising small-KV
// percentages.
func BenchmarkFig9b(b *testing.B) {
	for _, pct := range []int{40, 60, 80, 100} {
		mix := ycsb.SmallPercentMix(pct)
		for _, setup := range setups2 {
			b.Run(fmt.Sprintf("small%d/%s", pct, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.RunA, mix, 1)
			})
		}
	}
}

// setups3 are the three-way replication configurations of Figure 10.
var setups3 = []bench.Setup{bench.BuildIndexRL, bench.BuildIndex, bench.SendIndex, bench.NoReplication}

// BenchmarkFig10a reproduces Figure 10a: three-way replication, Load A,
// six mixes, including the reduced-L0 baseline.
func BenchmarkFig10a(b *testing.B) {
	for _, mix := range ycsb.AllMixes {
		for _, setup := range setups3 {
			b.Run(fmt.Sprintf("%s/%s", mix.Name, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.LoadA, mix, 2)
			})
		}
	}
}

// BenchmarkFig10b reproduces Figure 10b: three-way replication, Run A.
func BenchmarkFig10b(b *testing.B) {
	for _, mix := range ycsb.AllMixes {
		for _, setup := range setups3 {
			b.Run(fmt.Sprintf("%s/%s", mix.Name, setup), func(b *testing.B) {
				runExperiment(b, setup, ycsb.RunA, mix, 2)
			})
		}
	}
}

// BenchmarkSec55 reproduces the §5.5 comparison: Send-Index vs
// Build-IndexRL at an equal total L0 memory budget.
func BenchmarkSec55(b *testing.B) {
	for _, wl := range []ycsb.Workload{ycsb.LoadA, ycsb.RunA} {
		for _, setup := range []bench.Setup{bench.BuildIndexRL, bench.SendIndex} {
			b.Run(fmt.Sprintf("%s/%s", wl, setup), func(b *testing.B) {
				runExperiment(b, setup, wl, ycsb.MixSD, 2)
			})
		}
	}
}

// BenchmarkAblationRewriteVsRebuild isolates the paper's core mechanism
// (DESIGN.md "Data path"): translating a shipped index by rewriting segment
// pointers versus rebuilding the index from a sorted merge, at the
// backup. The rewrite must be cheaper by a wide margin.
func BenchmarkAblationRewriteVsRebuild(b *testing.B) {
	const (
		segSize  = 64 << 10
		nodeSize = 512
		keys     = 30000
	)
	build := func(dev *storage.MemDevice, emit btree.EmitFunc) btree.Built {
		bl, err := btree.NewBuilder(dev, nodeSize, emit)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			key := []byte(fmt.Sprintf("user%012d", i))
			if err := bl.Add(key, storage.Offset(1<<30|i), false); err != nil {
				b.Fatal(err)
			}
		}
		built, err := bl.Finish()
		if err != nil {
			b.Fatal(err)
		}
		return built
	}

	// Capture the emitted segments once.
	srcDev, _ := storage.NewMemDevice(segSize, 0)
	defer srcDev.Close()
	var segs []btree.EmittedSegment
	build(srcDev, func(es btree.EmittedSegment) error {
		segs = append(segs, btree.EmittedSegment{Seg: es.Seg, Data: append([]byte(nil), es.Data...)})
		return nil
	})

	b.Run("rewrite", func(b *testing.B) {
		geo := srcDev.Geometry()
		identity := func(s storage.SegmentID) (storage.SegmentID, error) { return s + 1000, nil }
		buf := make([]byte, segSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, es := range segs {
				copy(buf, es.Data)
				if _, err := btree.RewriteSegment(buf[:len(es.Data)], nodeSize, geo, identity, identity); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev, _ := storage.NewMemDevice(segSize, 0)
			build(dev, nil)
			dev.Close()
		}
	})
}

// BenchmarkGrowthFactorAblation sweeps the LSM growth factor f: the
// paper notes f=4 minimizes I/O amplification while production systems
// use 8-12 (§2).
func BenchmarkGrowthFactorAblation(b *testing.B) {
	for _, f := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			var res bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = bench.Run(bench.Params{
					Setup: bench.SendIndex, Workload: ycsb.LoadA, Mix: ycsb.MixS,
					Records: benchScale.Records, L0MaxKeys: benchScale.L0MaxKeys,
					Replicas: 1, GrowthFactor: f,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.IOAmp, "io-amp")
			b.ReportMetric(res.KCyclesPerOp, "Kcycles/op")
		})
	}
}

// TestBenchScaleSanity pins the benchmark scale to values that actually
// trigger multi-level compactions (guards against silent scale edits).
func TestBenchScaleSanity(t *testing.T) {
	perRegion := benchScale.Records / 6 // default 6 regions
	if perRegion < uint64(2*benchScale.L0MaxKeys) {
		t.Fatalf("bench scale too small: %d records/region vs L0 %d",
			perRegion, benchScale.L0MaxKeys)
	}
	var names []string
	for _, mix := range ycsb.AllMixes {
		names = append(names, mix.Name)
	}
	sort.Strings(names)
	if len(names) != 6 {
		t.Fatalf("expected the six Table 2 mixes, got %v", names)
	}
	_ = kv.Compare // keep the public kv package linked into the bench build
}
