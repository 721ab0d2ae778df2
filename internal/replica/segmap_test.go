package replica

import (
	"sync"
	"testing"
	"time"

	"tebis/internal/storage"
)

// Put records an explicit <primary, local> mapping, as a test stages a
// map state the replication path would take many steps to reach.
func (s *SegMap) Put(primary, local storage.SegmentID, flushed bool) {
	s.mu.Lock()
	s.publish(primary, local, flushed)
	s.mu.Unlock()
}

func newTestSegMap(t testing.TB) (*SegMap, *storage.MemDevice) {
	t.Helper()
	dev, err := storage.NewMemDevice(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return NewSegMap(dev), dev
}

// TestSegMapResolveTakesNoLockOnHit: resolving a mapped segment — what a
// backup's rewrite does for every pointer of a shipped segment — must not
// wait for the map's mutex. The test holds the mutex while it resolves and
// looks up a mapped segment; they must return all the same.
func TestSegMapResolveTakesNoLockOnHit(t *testing.T) {
	m, _ := newTestSegMap(t)
	local, err := m.Resolve(7)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan [2]storage.SegmentID, 1)
	go func() {
		got, err := m.Resolve(7)
		if err != nil {
			got = storage.NilSegment
		}
		found, _ := m.Lookup(7)
		done <- [2]storage.SegmentID{got, found}
	}()
	select {
	case got := <-done:
		if got != [2]storage.SegmentID{local, local} {
			t.Fatalf("Resolve, Lookup = %v, want %d twice", got, local)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Resolve of a mapped segment waited for the map's mutex")
	}
}

// TestSegMapFirstResolveAllocatesOnce: goroutines that make the first
// reference to one primary segment at the same time all get the same
// local segment, and the device allocates exactly one.
func TestSegMapFirstResolveAllocatesOnce(t *testing.T) {
	m, dev := newTestSegMap(t)
	before := dev.Stats().SegmentsLive
	const n = 8
	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		got   [n]storage.SegmentID
		errs  [n]error
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = m.Resolve(42)
		}()
	}
	start.Done()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || got[i] != got[0] {
			t.Fatalf("Resolve %d = %d, %v; Resolve 0 = %d", i, got[i], errs[i], got[0])
		}
	}
	if live := dev.Stats().SegmentsLive; live != before+1 {
		t.Fatalf("%d segments live after the first Resolve, want %d", live, before+1)
	}
}

// TestSegMapHitsRaceMutations runs lock-free hits beside every mutation
// the map has; run it under -race. Segments 1–8 stay mapped to what they
// first resolved to through every mutation but FreeAll and Clear, after
// which they resolve afresh.
func TestSegMapHitsRaceMutations(t *testing.T) {
	m, dev := newTestSegMap(t)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := storage.SegmentID(1); id <= 8; id++ {
					local, err := m.Resolve(id)
					if err != nil || local == storage.NilSegment {
						t.Errorf("Resolve(%d) = %d, %v", id, local, err)
						return
					}
					m.Lookup(id)
				}
			}
		}()
	}

	identity := func() map[storage.SegmentID]storage.SegmentID {
		out := map[storage.SegmentID]storage.SegmentID{}
		for id := range m.Snapshot() {
			out[id] = id
		}
		return out
	}
	for round := 0; round < 200; round++ {
		id := storage.SegmentID(100 + round%50)
		local, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		m.Put(id, local, false)
		m.MarkFlushed(id)
		m.UnflushedLocal() // the readers' entries are unflushed: only the walk matters
		if err := m.Retarget(identity()); err != nil {
			t.Fatal(err)
		}
		m.Delete(id)
		if err := dev.Free(local); err != nil {
			t.Fatal(err)
		}
		switch round % 20 {
		case 9:
			if err := m.FreeAll(); err != nil {
				t.Fatal(err)
			}
		case 19:
			m.Clear()
		}
	}
	close(stop)
	readers.Wait()
	for id := storage.SegmentID(1); id <= 8; id++ {
		local, _ := m.Resolve(id)
		if found, ok := m.Lookup(id); !ok || found != local {
			t.Fatalf("Lookup(%d) = %d, %v after Resolve gave %d", id, found, ok, local)
		}
	}
}

// BenchmarkSegMapResolve is the rewrite's per-pointer translation: the
// hit path of a backup's log or index map.
func BenchmarkSegMapResolve(b *testing.B) {
	m, _ := newTestSegMap(b)
	const mapped = 256
	for id := storage.SegmentID(1); id <= mapped; id++ {
		if _, err := m.Resolve(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(storage.SegmentID(1 + i%mapped)); err != nil {
			b.Fatal(err)
		}
	}
}
