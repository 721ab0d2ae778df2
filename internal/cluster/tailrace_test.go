package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tebis/internal/admission"
	"tebis/internal/obs"
	"tebis/internal/replica"
	"tebis/internal/ycsb"
)

// TestTailTelemetryRace drives the whole tail-latency telemetry stack
// concurrently under the race detector: two tenants (a paced victim and
// an unpaced flash crowd) hammer a Send-Index cluster with tracing,
// stage attribution, and admission control all on, while a scraper
// renders /metrics and a sampler ticks /metrics/history — and region
// 0's primary crashes mid-burst, so a backup is promoted while the
// scraper reads. Nothing here asserts latency; the test
// exists so `go test -race` exercises every lock the telemetry layer
// takes while the data path is hot.
func TestTailTelemetryRace(t *testing.T) {
	cfg := testConfig(replica.SendIndex, 1)
	cfg.Trace = obs.NewTracerBytes(2048, 1<<20)
	cfg.TraceSampleRate = 1.0 / 4
	cfg.Admission = &admission.Config{
		HighWater: 200 * time.Microsecond,
		Window:    8,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reg := obs.NewRegistry()
	c.Observe(reg)
	samp := obs.NewSampler(reg, 10*time.Millisecond, 0)
	samp.Start()
	defer samp.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked atomic.Uint64

	// issuer spins puts for one tenant until stop; shed errors are
	// expected under the aggressor's load and simply counted as not
	// acked.
	issuer := func(tenant, prio uint8, idx int, pace time.Duration) {
		defer wg.Done()
		cl, err := c.NewTenantClient(tenant, prio)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		val := []byte(fmt.Sprintf("tail-race-%d-%d", tenant, idx))
		for rec := uint64(0); ; rec++ {
			select {
			case <-stop:
				return
			default:
			}
			key := ycsb.Key(uint64(tenant)<<40 | uint64(idx)<<24 | rec%256)
			if err := cl.Put(key, val); err == nil {
				acked.Add(1)
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
	}
	// Tenant 1: two paced priority-1 victims. Tenant 2: three unpaced
	// priority-0 aggressors — enough on one core to trip the admission
	// state machine and produce shed replies to race against.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go issuer(1, 1, i, 2*time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go issuer(2, 0, i, 0)
	}

	// Scraper: renders the full Prometheus page (stage quantiles,
	// exemplars, admission counters) and the history CSV while the
	// series underneath keep mutating.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := samp.WriteCSV(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = c.Stages().Snapshot()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	time.Sleep(250 * time.Millisecond)
	// Mid-burst failover: region 0's primary crashes and its backup is
	// promoted while tenants write and the scraper reads.
	r0, err := c.Leader().Map().ByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(r0.Primary); err != nil {
		t.Fatalf("crash mid-burst: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	if acked.Load() == 0 {
		t.Fatal("no puts acked during the run")
	}
	snaps := c.Stages().Snapshot()
	if len(snaps) == 0 {
		t.Fatal("no stage series recorded")
	}
	tenants := map[string]bool{}
	for _, s := range snaps {
		tenants[s.Tenant] = true
	}
	if !tenants["t1"] || !tenants["t2"] {
		t.Fatalf("stage series tenants = %v, want both t1 and t2", tenants)
	}
	for _, n := range c.Nodes {
		if snap := n.Server.Admission().Snapshot(); snap.WaitEWMA > 0 {
			return // controller saw queue wait somewhere — signal flowed
		}
	}
	t.Fatal("no server's admission controller observed any queue wait")
}
