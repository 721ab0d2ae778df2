package lsm

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
)

// memtableGauge reads a live engine gauge at scrape time.
type memtableGauge struct{ db *DB }

func (g memtableGauge) Collect() []metrics.Family {
	return []metrics.Family{metrics.Gauge("tebis_race_memtable_bytes", "live engine gauge",
		metrics.Value(float64(g.db.MemtableBytes())))}
}

// TestConcurrentScrapeAndSample exercises the full observability read
// path under -race while the compaction scheduler is live: one
// goroutine scrapes /metrics-style expositions, one ticks the
// time-series sampler, one drains the Chrome trace export, and the
// main goroutine drives enough puts through a traced engine to keep
// compaction workers busy the whole time.
func TestConcurrentScrapeAndSample(t *testing.T) {
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	stats := &metrics.CompactionStats{}
	tracer := obs.NewTracer(256)
	db, err := New(Options{
		Device:            dev,
		NodeSize:          256,
		GrowthFactor:      4,
		L0MaxKeys:         64,
		MaxLevels:         5,
		Seed:              1,
		CompactionWorkers: 2,
		L0Buffers:         2,
		CompactionStats:   stats,
		Trace:             tracer.Node("race"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	reg := obs.NewRegistry()
	reg.Register(obs.Labels{"node": "race"}, stats)
	reg.Register(obs.Labels{"node": "race"}, storage.Meter{Device: dev})
	reg.Register(nil, tracer)
	reg.Register(nil, memtableGauge{db})
	samp := obs.NewSampler(reg, time.Millisecond, 128)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(f func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f()
			}
		}
	}
	wg.Add(3)
	go reader(func() { _ = reg.WritePrometheus(io.Discard) })
	go reader(func() { samp.Tick() })
	go reader(func() {
		_ = tracer.WriteChromeTrace(io.Discard)
		_ = samp.WriteJSON(io.Discard)
	})

	val := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("race%08d", i))
		var rt *obs.ReqTrace
		if i%128 == 0 {
			rt = tracer.Node("race").Request(uint64(i + 1))
		}
		if err := db.PutTraced(key, val, rt); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if samp.Ticks() == 0 {
		t.Fatal("sampler never ticked")
	}
	if len(samp.History()) == 0 {
		t.Fatal("sampler buffered no series")
	}
	if db.CompactionStats().Jobs == 0 {
		t.Fatal("compaction scheduler never ran — the race window was empty")
	}
}
