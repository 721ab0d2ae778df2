package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tebis/internal/kv"
	"tebis/internal/region"
	"tebis/internal/replica"
)

// TestSplitHostedAliasServesAndMerges exercises the hosted side of a
// logical split: the right child becomes an alias resolving to the
// parent's engine, both children serve at the new epoch with clamped
// bounds, re-ensuring is idempotent, and MergeHosted collapses the pair.
func TestSplitHostedAliasServesAndMerges(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	r := region.Region{ID: 1, Start: []byte{}, Epoch: 1, Primary: "s0"}
	p, err := s.OpenPrimary(r, replica.NoReplication)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 26; i++ {
		if err := p.DB().Put([]byte{byte('a' + i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	left := region.Region{ID: 1, Start: []byte{}, End: []byte("m"), Epoch: 2, Primary: "s0"}
	right := region.Region{ID: 2, Start: []byte("m"), Epoch: 2, Primary: "s0", Parent: 1, HasParent: true}
	if err := s.SplitHosted(left, right); err != nil {
		t.Fatal(err)
	}
	if kids := s.AliasChildren(1); len(kids) != 1 || kids[0] != 2 {
		t.Fatalf("AliasChildren = %v", kids)
	}
	// Re-ensuring the same split (successor master replay) is a no-op.
	if err := s.SplitHosted(left, right); err != nil {
		t.Fatalf("idempotent SplitHosted: %v", err)
	}

	// Both children serve writes at the new epoch from the shared engine.
	leftRef, err := s.acquire(1, 2, true)
	if err != nil {
		t.Fatalf("acquire left: %v", err)
	}
	if string(leftRef.end) != "m" {
		t.Fatalf("left end = %q, want m", leftRef.end)
	}
	leftRef.release()
	rightRef, err := s.acquire(2, 2, true)
	if err != nil {
		t.Fatalf("acquire alias child: %v", err)
	}
	if rightRef.db != leftRef.db {
		t.Fatal("alias child does not share the parent's engine")
	}
	if rightRef.end != nil {
		t.Fatalf("right end = %q, want +inf", rightRef.end)
	}
	if rightRef.stats == leftRef.stats {
		t.Fatal("alias child accounts into its owner's stats")
	}
	rightRef.release()

	// A request routed with the pre-split epoch bounces.
	if ref, err := s.acquire(1, 1, false); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("stale epoch err = %v", err)
	} else if ref.stats != leftRef.stats {
		t.Fatal("a refused op lost the addressed region's stats")
	}

	// Both halves report load so the rebalancer can tell them apart.
	loads := s.RegionLoads()
	if _, ok := loads[1]; !ok {
		t.Fatalf("RegionLoads missing owner: %v", loads)
	}
	if _, ok := loads[2]; !ok {
		t.Fatalf("RegionLoads missing alias child: %v", loads)
	}

	merged := region.Region{ID: 1, Start: []byte{}, Epoch: 3, Primary: "s0"}
	if err := s.MergeHosted(merged, 2); err != nil {
		t.Fatal(err)
	}
	if kids := s.AliasChildren(1); len(kids) != 0 {
		t.Fatalf("AliasChildren after merge = %v", kids)
	}
	if _, err := s.acquire(2, 0, false); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("merged-away child err = %v", err)
	}
	if ref, err := s.acquire(1, 3, true); err != nil {
		t.Fatalf("post-merge acquire: %v", err)
	} else {
		ref.release()
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

// TestSplitKeyMedian checks the sampled split point lands strictly
// inside the region's key range and respects an alias child's bounds.
func TestSplitKeyMedian(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	r := region.Region{ID: 1, Start: []byte{}, Epoch: 1, Primary: "s0"}
	p, err := s.OpenPrimary(r, replica.NoReplication)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SplitKey(1); err == nil {
		t.Fatal("SplitKey on an empty region must fail")
	}
	for i := 0; i < 100; i++ {
		if err := p.DB().Put([]byte(fmt.Sprintf("key%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	k, err := s.SplitKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Compare(k, []byte("key000")) <= 0 || kv.Compare(k, []byte("key099")) >= 0 {
		t.Fatalf("split key %q not strictly inside the range", k)
	}

	left := region.Region{ID: 1, Start: []byte{}, End: k, Epoch: 2, Primary: "s0"}
	right := region.Region{ID: 2, Start: k, Epoch: 2, Primary: "s0", Parent: 1, HasParent: true}
	if err := s.SplitHosted(left, right); err != nil {
		t.Fatal(err)
	}
	ck, err := s.SplitKey(2)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Compare(ck, k) <= 0 || kv.Compare(ck, []byte("key099")) >= 0 {
		t.Fatalf("alias child split key %q outside (%q, key099)", ck, k)
	}
}
