package storage

import "sync/atomic"

// segChunkBits sizes a SegmentTable chunk: 512 entries, 4 KiB of
// pointers.
const segChunkBits = 9

// SegmentTable maps segment IDs to entries for readers that take no
// lock: a dense array of atomic pointers indexed by SegmentID, in chunks
// allocated as IDs in them are first stored, behind a directory that
// grows to the highest ID stored — so its memory follows the device's
// high-water mark rather than a fixed capacity.
//
// Store and Reset run under the owner's mutex, as do Len and IDs;
// Load runs anywhere and is an atomic load of the chunk directory and
// one of the entry. A directory is never changed once published: Store
// publishes a grown copy to add a chunk. An owner publishes an entry
// only once what it describes exists and unpublishes it before that
// goes away, so a reader that loads a non-nil entry may act on it.
type SegmentTable[T any] struct {
	dir atomic.Pointer[[]*segChunk[T]]
	n   int // non-nil entries
}

type segChunk[T any] [1 << segChunkBits]atomic.Pointer[T]

// Load returns the entry published for id, or nil. An ID past the end of
// the table has none.
func (t *SegmentTable[T]) Load(id SegmentID) *T {
	dir := t.dir.Load()
	if dir == nil || int(id>>segChunkBits) >= len(*dir) {
		return nil
	}
	chunk := (*dir)[id>>segChunkBits]
	if chunk == nil {
		return nil
	}
	return chunk[id&(1<<segChunkBits-1)].Load()
}

// Store publishes v for id, or with nil unpublishes id's entry. A
// non-nil v in a chunk not yet allocated adds the chunk.
func (t *SegmentTable[T]) Store(id SegmentID, v *T) {
	var dir []*segChunk[T]
	if p := t.dir.Load(); p != nil {
		dir = *p
	}
	c := int(id >> segChunkBits)
	if c >= len(dir) || dir[c] == nil {
		if v == nil {
			return
		}
		grown := make([]*segChunk[T], max(c+1, len(dir)))
		copy(grown, dir)
		grown[c] = new(segChunk[T])
		t.dir.Store(&grown)
		dir = grown
	}
	if old := dir[c][id&(1<<segChunkBits-1)].Swap(v); old == nil && v != nil {
		t.n++
	} else if old != nil && v == nil {
		t.n--
	}
}

// Len returns the number of published entries.
func (t *SegmentTable[T]) Len() int { return t.n }

// IDs returns the IDs of the published entries in ascending order.
func (t *SegmentTable[T]) IDs() []SegmentID {
	ids := make([]SegmentID, 0, t.n)
	if dir := t.dir.Load(); dir != nil {
		for c, chunk := range *dir {
			for i := 0; chunk != nil && i < len(chunk); i++ {
				if chunk[i].Load() != nil {
					ids = append(ids, SegmentID(c<<segChunkBits|i))
				}
			}
		}
	}
	return ids
}

// Reset unpublishes every entry and drops the table's memory.
func (t *SegmentTable[T]) Reset() {
	t.dir.Store(nil)
	t.n = 0
}
