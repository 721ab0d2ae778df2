package server

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/storage"
)

func newTestServer(t testing.TB, name string) (*Server, *storage.MemDevice) {
	t.Helper()
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Name:     name,
		Device:   dev,
		Endpoint: rdma.NewEndpoint(name),
		Cycles:   &metrics.Cycles{},
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    256,
			MaxLevels:    5,
		},
		Workers:     2,
		SpinThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		dev.Close()
	})
	return s, dev
}

func wholeKeyspace(primary string, backups ...string) region.Region {
	return region.Region{ID: 1, Start: []byte{}, Primary: primary, Backups: backups}
}

func TestOpenPrimaryAndServe(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	p, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication)
	if err != nil {
		t.Fatal(err)
	}
	if p.DB() == nil {
		t.Fatal("primary has no engine")
	}
	if err := p.DB().Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Primary(1)
	if !ok || got != p {
		t.Fatal("Primary lookup failed")
	}
	if ids := s.Regions(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Regions = %v", ids)
	}
}

func TestOpenDuplicateRegionFails(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); !errors.Is(err, ErrRegionExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.OpenBackup(wholeKeyspace("s0"), replica.SendIndex); !errors.Is(err, ErrRegionExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestBackupLifecycleAndPromote(t *testing.T) {
	sp, _ := newTestServer(t, "sp")
	sb, _ := newTestServer(t, "sb")

	r := wholeKeyspace("sp", "sb")
	p, err := sp.OpenPrimary(r, replica.SendIndex)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sb.OpenBackup(r, replica.SendIndex)
	if err != nil {
		t.Fatal(err)
	}
	replica.Attach(p, b)

	for i := 0; i < 1500; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	// Promote the backup on sb.
	p.Detach(b)
	p2, err := sb.PromoteToPrimary(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sb.Backup(1); ok {
		t.Fatal("promoted region still a backup")
	}
	v, found, err := p2.DB().Get([]byte("key000042"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("promoted Get = %q, %v, %v", v, found, err)
	}
}

func TestPromoteUnknownRegionFails(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.PromoteToPrimary(99); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("err = %v", err)
	}
}

func TestDropRegion(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRegion(1); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRegion(1); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("double drop err = %v", err)
	}
	if len(s.Regions()) != 0 {
		t.Fatal("region still hosted")
	}
}

func TestPrimaryDBRouting(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.primaryDB(1); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.OpenBackup(wholeKeyspace("other", "s0"), replica.SendIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := s.primaryDB(1); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup-only region err = %v", err)
	}
}

func TestClosedServerRejectsOpens(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashStopsProcessing(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if _, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	clientEP := rdma.NewEndpoint("c")
	replyBuf, _ := clientEP.Register(DefaultBufferSize)
	if _, err := s.Connect(clientEP, replyBuf.RKey()); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	// New connections are refused and the request buffer is gone.
	if _, err := s.Connect(clientEP, replyBuf.RKey()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Connect after crash err = %v", err)
	}
	// Crash is idempotent and Close after crash is safe.
	s.Crash()
}

func TestFlushDrainsBuildIndexBackups(t *testing.T) {
	sp, _ := newTestServer(t, "sp")
	sb, devB := newTestServer(t, "sb")
	r := wholeKeyspace("sp", "sb")
	p, err := sp.OpenPrimary(r, replica.BuildIndex)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sb.OpenBackup(r, replica.BuildIndex)
	if err != nil {
		t.Fatal(err)
	}
	replica.Attach(p, b)
	for i := 0; i < 2000; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%06d", i)), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Flush(); err != nil {
		t.Fatal(err)
	}
	// The backup engine must have compacted: it read its device.
	if devB.Stats().BytesRead == 0 {
		t.Fatal("Build-Index backup never compacted")
	}
}

// TestDefaultSpinThreadsFollowGOMAXPROCS: a server left to pick its
// spinning threads starts no more than the runtime has Ps, read when it
// is built; a count set explicitly is kept.
func TestDefaultSpinThreadsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, set, want int }{
		{1, 0, 1}, {2, 0, 2}, {4, 0, 2}, {1, 3, 3},
	} {
		runtime.GOMAXPROCS(tc.procs)
		dev, err := storage.NewMemDevice(16<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Name: "s0", Device: dev, Endpoint: rdma.NewEndpoint("s0"), SpinThreads: tc.set})
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.SpinThreads != tc.want || len(s.spinStats) != tc.want {
			t.Errorf("GOMAXPROCS %d, SpinThreads %d: %d spinning threads (%d counted), want %d",
				tc.procs, tc.set, s.cfg.SpinThreads, len(s.spinStats), tc.want)
		}
		s.Close()
		dev.Close()
	}
}

// TestWorkerQueueDepthConfig: a worker's queue holds 4*TaskThreshold
// tasks, at the default threshold and at one set explicitly.
func TestWorkerQueueDepthConfig(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	if want := 4 * DefaultTaskThreshold; cap(s.workers[0].queue) != want {
		t.Fatalf("default queue depth = %d, want %d", cap(s.workers[0].queue), want)
	}

	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{
		Name:     "s1",
		Device:   dev,
		Endpoint: rdma.NewEndpoint("s1"),
		LSM: lsm.Options{
			NodeSize:     512,
			GrowthFactor: 4,
			L0MaxKeys:    256,
			MaxLevels:    5,
		},
		Workers:       1,
		SpinThreads:   1,
		TaskThreshold: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s2.Close()
		dev.Close()
	})
	if cap(s2.workers[0].queue) != 64 {
		t.Fatalf("queue depth at TaskThreshold 16 = %d, want 64", cap(s2.workers[0].queue))
	}
}
