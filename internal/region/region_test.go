package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func threeServers() []string { return []string{"s0", "s1", "s2"} }

func TestPartitionValidates(t *testing.T) {
	for _, n := range []int{1, 3, 32, 100} {
		m, err := Partition(n, threeServers(), 2)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Partition(%d) invalid: %v", n, err)
		}
		if len(m.Regions) != n {
			t.Fatalf("got %d regions", len(m.Regions))
		}
	}
}

func TestPartitionRejectsBadArgs(t *testing.T) {
	if _, err := Partition(0, threeServers(), 1); err == nil {
		t.Fatal("zero regions accepted")
	}
	if _, err := Partition(4, threeServers(), 3); err == nil {
		t.Fatal("more replicas than distinct servers accepted")
	}
}

func TestPartitionDistinctReplicaServers(t *testing.T) {
	m, _ := Partition(32, threeServers(), 2)
	for _, r := range m.Regions {
		seen := map[string]bool{r.Primary: true}
		for _, b := range r.Backups {
			if seen[b] {
				t.Fatalf("region %d repeats server %s", r.ID, b)
			}
			seen[b] = true
		}
	}
}

func TestLookupCoversAllKeys(t *testing.T) {
	m, _ := Partition(32, threeServers(), 1)
	f := func(key []byte) bool {
		r, err := m.Lookup(key)
		return err == nil && r.Contains(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupBoundaries(t *testing.T) {
	m, _ := Partition(4, threeServers(), 1)
	// Keys exactly at region boundaries must land in the right region.
	for i, r := range m.Regions {
		got, err := m.Lookup(r.Start)
		if err != nil {
			t.Fatalf("Lookup(start of %d): %v", i, err)
		}
		if got.ID != r.ID {
			t.Fatalf("Lookup(start of %d) = region %d", i, got.ID)
		}
	}
}

func TestLookupDisjoint(t *testing.T) {
	m, _ := Partition(8, threeServers(), 1)
	f := func(key []byte) bool {
		hits := 0
		for _, r := range m.Regions {
			if r.Contains(key) {
				hits++
			}
		}
		return hits == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByID(t *testing.T) {
	m, _ := Partition(4, threeServers(), 1)
	r, err := m.ByID(2)
	if err != nil || r.ID != 2 {
		t.Fatalf("ByID = %+v, %v", r, err)
	}
	if _, err := m.ByID(99); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSetPrimaryPromotesBackup(t *testing.T) {
	m, _ := Partition(4, threeServers(), 2)
	r0, _ := m.ByID(0)
	newPrimary := r0.Backups[0]
	v := m.Version
	if err := m.SetPrimary(0, newPrimary); err != nil {
		t.Fatal(err)
	}
	r0, _ = m.ByID(0)
	if r0.Primary != newPrimary {
		t.Fatalf("primary = %s", r0.Primary)
	}
	for _, b := range r0.Backups {
		if b == newPrimary {
			t.Fatal("promoted server still listed as backup")
		}
	}
	if m.Version <= v {
		t.Fatal("version not bumped")
	}
}

func TestReplaceBackup(t *testing.T) {
	m, _ := Partition(4, threeServers(), 1)
	r0, _ := m.ByID(0)
	old := r0.Backups[0]
	if err := m.ReplaceBackup(0, old, "s9"); err != nil {
		t.Fatal(err)
	}
	r0, _ = m.ByID(0)
	if r0.Backups[0] != "s9" {
		t.Fatalf("backups = %v", r0.Backups)
	}
	if err := m.ReplaceBackup(0, "nope", "s9"); err == nil {
		t.Fatal("replacing absent backup accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, _ := Partition(32, threeServers(), 2)
	m.Version = 17
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 17 || len(got.Regions) != 32 {
		t.Fatalf("decoded %d regions v%d", len(got.Regions), got.Version)
	}
	for i, r := range m.Regions {
		g := got.Regions[i]
		if g.ID != r.ID || !bytes.Equal(g.Start, r.Start) || !bytes.Equal(g.End, r.End) ||
			g.Primary != r.Primary || fmt.Sprint(g.Backups) != fmt.Sprint(r.Backups) {
			t.Fatalf("region %d mismatch: %+v vs %+v", i, g, r)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodePlacementAndOldLayouts: a map round-trips its
// placement, and a map in an older layout is refused, not misread —
// neither the one that followed each region with a parent flag nor the
// one that followed it with a 4-byte epoch.
func TestEncodeDecodePlacementAndOldLayouts(t *testing.T) {
	m, _ := Partition(3, threeServers(), 1)
	if err := m.SetPrimary(1, "s2"); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.Regions {
		g := got.Regions[i]
		if g.Primary != r.Primary || fmt.Sprint(g.Backups) != fmt.Sprint(r.Backups) {
			t.Fatalf("region %d placement mismatch: %+v vs %+v", r.ID, g, r)
		}
	}
	one, _ := Partition(1, threeServers(), 1)
	enc := one.Encode()
	for _, old := range []struct {
		name string
		tail []byte
	}{{"parent-linked", []byte{0}}, {"epoch-carrying", binary.LittleEndian.AppendUint32(nil, 1)}} {
		if _, err := Decode(append(enc[:len(enc):len(enc)], old.tail...)); !errors.Is(err, ErrBadMap) {
			t.Fatalf("%s layout decoded: %v", old.name, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short decoded")
	}
	enc := func() []byte {
		m, _ := Partition(2, threeServers(), 1)
		return m.Encode()
	}()
	for i := 1; i < len(enc)-1; i += 7 {
		if _, err := Decode(enc[:i]); err == nil {
			t.Fatalf("truncated map at %d decoded", i)
		}
	}
}

// TestDecodeRejectsTrailingBytes: a map followed by more input is
// malformed — a map in an older layout, whose regions carried one more
// byte, must fail rather than parse as something else.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	m, _ := Partition(1, threeServers(), 1)
	enc := m.Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{append(enc[:len(enc):len(enc)], 0), append(enc[:len(enc):len(enc)], 1, 7, 0)} {
		if _, err := Decode(p); !errors.Is(err, ErrBadMap) {
			t.Fatalf("Decode of %d bytes with %d trailing = %v, want ErrBadMap", len(p), len(p)-len(enc), err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, _ := Partition(2, threeServers(), 1)
	c := m.Clone()
	c.Regions[0].Primary = "mutated"
	c.Regions[0].Backups[0] = "mutated"
	if m.Regions[0].Primary == "mutated" || m.Regions[0].Backups[0] == "mutated" {
		t.Fatal("Clone aliases original")
	}
}
