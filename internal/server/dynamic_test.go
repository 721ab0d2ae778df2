package server

import (
	"errors"
	"testing"

	"tebis/internal/region"
	"tebis/internal/replica"
)

// TestAcquireBoundsScans: an op on a hosted primary carries its region's
// upper bound, which a scan stops at; an op on a region not hosted here
// is refused.
func TestAcquireBoundsScans(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	r := region.Region{ID: 1, Start: []byte{}, End: []byte("m"), Primary: "s0"}
	if _, err := s.OpenPrimary(r, replica.NoReplication); err != nil {
		t.Fatal(err)
	}
	ref, err := s.acquire(1)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if string(ref.end) != "m" || ref.db == nil {
		t.Fatalf("ref end = %q, engine %v; want m and the region's engine", ref.end, ref.db)
	}
	if _, err := s.acquire(2); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("unhosted region err = %v", err)
	}
}
