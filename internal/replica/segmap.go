// Package replica implements Tebis's replication protocols (§3.2-3.3):
//
//   - Value-log replication: the primary RDMA-writes each record into a
//     log buffer at every backup without involving their CPUs; when the
//     tail segment fills, a flush command makes backups persist their
//     buffer and record a <primary segment, backup segment> log-map
//     entry.
//
//   - Send-Index: after each Li×Li+1 compaction the primary ships the
//     pre-built L'i+1 index segment by segment; backups allocate local
//     segments through an index map and rewrite every device offset in
//     the received nodes, avoiding the compaction entirely.
//
//   - Build-Index (the paper's baseline): backups keep their own L0 and
//     run their own compactions over the replicated log.
package replica

import (
	"fmt"
	"sync"

	"tebis/internal/storage"
)

// SegMap maintains the <primary segment, local segment> translation a
// backup keeps for the value log (log map) and, per compaction, for the
// shipped index (index map). Resolution allocates local segments lazily
// so forward references — a parent index segment shipped before a child,
// or a leaf pointing into the primary's still-unflushed log tail —
// translate correctly (§3.3).
//
// Entries live in a storage.SegmentTable indexed by primary segment, so
// resolving a mapped segment — once for every pointer a shipped segment's
// rewrite translates — is one atomic load and takes no lock. A miss and
// every mutation take mu, and a published entry is never edited: a change
// publishes a new one.
type SegMap struct {
	dev storage.Device

	mu   sync.Mutex
	tab  storage.SegmentTable[segEntry]
	slab []segEntry // where publish cuts new entries from
}

// segSlab is how many entries publish allocates at once: a mapping, and
// each MarkFlushed of it, costs a fraction of an allocation, not one.
const segSlab = 32

// segEntry is one mapping: the local segment plus whether its data has
// been persisted locally (lazily allocated entries start unflushed).
type segEntry struct {
	local   storage.SegmentID
	flushed bool
}

// NewSegMap creates an empty map allocating from dev.
func NewSegMap(dev storage.Device) *SegMap {
	return &SegMap{dev: dev}
}

// publish maps primary to a new entry. Caller holds mu.
func (s *SegMap) publish(primary, local storage.SegmentID, flushed bool) {
	if len(s.slab) == 0 {
		s.slab = make([]segEntry, segSlab)
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	*e = segEntry{local: local, flushed: flushed}
	s.tab.Store(primary, e)
}

// Resolve returns the local segment for primary, allocating one on first
// reference (unflushed until MarkFlushed).
func (s *SegMap) Resolve(primary storage.SegmentID) (storage.SegmentID, error) {
	if e := s.tab.Load(primary); e != nil {
		return e.local, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.tab.Load(primary); e != nil {
		return e.local, nil
	}
	local, err := s.dev.Alloc()
	if err != nil {
		return storage.NilSegment, err
	}
	s.publish(primary, local, false)
	return local, nil
}

// MarkFlushed records that the local segment for primary now holds
// persisted data (§3.2 step 2d).
func (s *SegMap) MarkFlushed(primary storage.SegmentID) {
	s.mu.Lock()
	if e := s.tab.Load(primary); e != nil && !e.flushed {
		s.publish(primary, e.local, true)
	}
	s.mu.Unlock()
}

// Delete retires the mapping for primary (after GC released the local
// copy). Freeing the local segment, when appropriate, is the caller's
// job; Delete only forgets the name so a recycled primary segment ID
// resolves to a fresh local segment.
func (s *SegMap) Delete(primary storage.SegmentID) {
	s.mu.Lock()
	s.tab.Store(primary, nil)
	s.mu.Unlock()
}

// Lookup returns the local segment for primary without allocating.
func (s *SegMap) Lookup(primary storage.SegmentID) (storage.SegmentID, bool) {
	e := s.tab.Load(primary)
	if e == nil {
		// A miss re-checks under mu: Retarget republishes every entry.
		s.mu.Lock()
		e = s.tab.Load(primary)
		s.mu.Unlock()
	}
	if e == nil {
		return storage.NilSegment, false
	}
	return e.local, true
}

// UnflushedLocal returns the single local segment whose data was never
// flushed (the primary's live tail), if any. At most one mapped segment
// can be unflushed; more indicates protocol corruption.
func (s *SegMap) UnflushedLocal() (storage.SegmentID, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	found := storage.NilSegment
	for _, id := range s.tab.IDs() {
		e := s.tab.Load(id)
		if e.flushed {
			continue
		}
		if found != storage.NilSegment {
			return storage.NilSegment, false, fmt.Errorf("replica: multiple unflushed log segments in map")
		}
		found = e.local
	}
	return found, found != storage.NilSegment, nil
}

// Len returns the number of entries (each entry is 16 B in the paper's
// footprint estimate).
func (s *SegMap) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Len()
}

// Snapshot copies the mapping (the new primary sends this to the
// remaining backups after a promotion, §3.2).
func (s *SegMap) Snapshot() map[storage.SegmentID]storage.SegmentID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.tab.IDs()
	out := make(map[storage.SegmentID]storage.SegmentID, len(ids))
	for _, id := range ids {
		out[id] = s.tab.Load(id).local
	}
	return out
}

// Retarget rewrites the map after a primary change: every key (old
// primary segment) is replaced by the new primary's local segment for
// the same data, using the new primary's own log map. This is the pure
// in-memory map update §3.2 describes — no I/O; flushed state travels
// with each entry. Entries the new primary does not know (e.g.
// allocated for its unflushed tail) are dropped.
func (s *SegMap) Retarget(newPrimary map[storage.SegmentID]storage.SegmentID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.tab.IDs()
	out := make(map[storage.SegmentID]*segEntry, len(ids))
	for _, oldSeg := range ids {
		newSeg, ok := newPrimary[oldSeg]
		if !ok {
			continue
		}
		if _, dup := out[newSeg]; dup {
			return fmt.Errorf("replica: retarget maps %d twice", newSeg)
		}
		out[newSeg] = s.tab.Load(oldSeg)
	}
	s.tab.Reset()
	for newSeg, e := range out {
		s.tab.Store(newSeg, e)
	}
	return nil
}

// FreeAll releases every allocated local segment (discarding a stale
// index map after an aborted compaction) and empties the map.
func (s *SegMap) FreeAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.tab.IDs() {
		e := s.tab.Load(id)
		s.tab.Store(id, nil) // unpublished before its segment goes away
		if err := s.dev.Free(e.local); err != nil {
			return err
		}
	}
	s.tab.Reset()
	return nil
}

// Clear empties the map without freeing segments (after ownership of the
// segments moved to an installed level).
func (s *SegMap) Clear() {
	s.mu.Lock()
	s.tab.Reset()
	s.mu.Unlock()
}
