package server

import (
	"errors"
	"testing"
	"time"

	"tebis/internal/region"
	"tebis/internal/replica"
)

// TestAcquireBoundsScansAndBouncesStaleEpochs: an admitted op carries
// its region's upper bound, which a scan stops at, and a request routed
// with another epoch bounces as wrong-epoch while still accounting into
// the addressed region's stats.
func TestAcquireBoundsScansAndBouncesStaleEpochs(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	r := region.Region{ID: 1, Start: []byte{}, End: []byte("m"), Epoch: 2, Primary: "s0"}
	if _, err := s.OpenPrimary(r, replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	ref, err := s.acquire(1, 2, true)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if string(ref.end) != "m" || ref.stats == nil {
		t.Fatalf("ref end = %q, stats %v; want m and the region's stats", ref.end, ref.stats)
	}
	ref.release()
	if stale, err := s.acquire(1, 1, false); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("stale epoch err = %v", err)
	} else if stale.stats != ref.stats {
		t.Fatal("a refused op lost the addressed region's stats")
	}
	if _, err := s.acquire(2, 0, false); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("unhosted region err = %v", err)
	}
}

// TestFreezeParksOpsUntilUnfreeze exercises the freeze window: Freeze
// revokes the lease and drains in-flight ops before returning, parked
// ops wait out the window, and after Unfreeze installs a bumped
// descriptor they bounce as wrong-epoch so the client refreshes its map.
func TestFreezeParksOpsUntilUnfreeze(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	r := region.Region{ID: 1, Start: []byte{}, Epoch: 1, Primary: "s0"}
	if _, err := s.OpenPrimary(r, replica.NoReplication); err != nil {
		t.Fatal(err)
	}

	// Freeze must not return while an admitted op is still in flight.
	held, err := s.acquire(1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	frozeAt := make(chan time.Time, 1)
	go func() {
		if err := s.Freeze(1); err != nil {
			t.Errorf("freeze: %v", err)
		}
		frozeAt <- time.Now()
	}()
	time.Sleep(20 * time.Millisecond)
	released := time.Now()
	held.release()
	if ts := <-frozeAt; ts.Before(released) {
		t.Fatal("Freeze returned before in-flight ops drained")
	}
	if !s.Frozen(1) {
		t.Fatal("region not frozen")
	}

	// Ops arriving inside the window park; once Unfreeze installs the
	// post-reconfiguration epoch they re-resolve and bounce as
	// wrong-epoch instead of landing on stale state.
	parked := make(chan error, 1)
	go func() {
		_, err := s.acquire(1, 1, true)
		parked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-parked:
		t.Fatalf("op did not park across the freeze window: %v", err)
	default:
	}
	updated := region.Region{ID: 1, Start: []byte{}, Epoch: 2, Primary: "s0"}
	lease := region.Lease{Region: 1, Epoch: 2, Holder: "s0"}
	if err := s.Unfreeze(updated, lease); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("parked op err = %v, want wrong-epoch", err)
	}
	if s.Frozen(1) {
		t.Fatal("region still frozen")
	}

	// Current-epoch traffic resumes under the reissued lease.
	if ref, err := s.acquire(1, 2, true); err != nil {
		t.Fatalf("post-unfreeze write: %v", err)
	} else {
		ref.release()
	}

	// A freeze window with no reissued lease leaves the region readable
	// but not writable.
	if err := s.Freeze(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Unfreeze(updated, region.Lease{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.acquire(1, 2, true); !errors.Is(err, ErrNoLease) {
		t.Fatalf("write without lease err = %v", err)
	}
	if ref, err := s.acquire(1, 2, false); err != nil {
		t.Fatalf("read without lease: %v", err)
	} else {
		ref.release()
	}
}
