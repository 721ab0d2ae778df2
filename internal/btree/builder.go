package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"tebis/internal/integrity"
	"tebis/internal/kv"
	"tebis/internal/storage"
)

// SegKind distinguishes leaf segments from index segments in emitted
// segment metadata (Figure 3 separates the two on the device).
type SegKind uint8

// Segment kinds.
const (
	SegLeaf SegKind = iota + 1
	SegIndex
)

// String implements fmt.Stringer.
func (k SegKind) String() string {
	switch k {
	case SegLeaf:
		return "leaf"
	case SegIndex:
		return "index"
	}
	return "unknown"
}

// EmittedSegment is one sealed tree segment, already written to the
// local device. The primary's Send-Index path ships Data to backups the
// moment this is emitted.
type EmittedSegment struct {
	// Seg is the local device segment ID.
	Seg storage.SegmentID
	// Kind says whether the segment holds leaves or index nodes.
	Kind SegKind
	// Data is the used portion of the segment image (a multiple of the
	// node size). Sealed-full segments carry the whole segment;
	// partially filled ones (emitted at Finish) carry only used nodes.
	// It is the builder's own segment buffer, handed over: the builder
	// keeps no reference, so the receiver may hold on to it.
	Data []byte
}

// EmitFunc receives sealed segments during the build.
type EmitFunc func(EmittedSegment) error

// Built summarizes a finished tree.
type Built struct {
	// Root is the device offset of the root node (NilOffset for an
	// empty tree).
	Root storage.Offset
	// Segments lists every device segment of the tree, in emit order.
	Segments []storage.SegmentID
	// NumKeys is the number of leaf entries.
	NumKeys int
	// Filter is the level filter over the leaf entries' prefixes: nil
	// for an empty tree, or when the builder was given no collector.
	Filter *Filter
}

// Builder constructs a B+ tree bottom-up from a sorted key stream.
//
// Usage: create with NewBuilder, call Add (or AddEntry) for every entry
// in strictly ascending key order, then Finish.
type Builder struct {
	dev      storage.Device
	geo      storage.Geometry
	nodeSize int
	slots    int // node slots per segment (framing-aware)
	emit     EmitFunc

	levels []*levelBuilder // levels[0] = leaves
	built  Built
	filter *FilterCollector // every entry's prefix, for built.Filter; nil builds none

	// The previous entry, for the order guard. lastKey is its full key
	// in a buffer the builder owns, empty while nobody has needed it.
	last    LeafEntry
	lastKey []byte
	started bool

	sealTime time.Duration
}

// levelBuilder accumulates one tree level left to right.
type levelBuilder struct {
	kind byte // kindLeaf or kindIndex

	// Current segment being filled.
	seg     storage.SegmentID
	segBuf  []byte
	nodeIdx int // next free node slot in segBuf

	// Current node under construction. A leaf stages its entries: its
	// columns are known only once its last entry is. diffHi and diffLo
	// are the OR over the staged prefixes of each one XOR the first's,
	// bytes 0–7 and 8–11, which sharedEnds reads the columns off.
	entries  []LeafEntry
	diffHi   uint64
	diffLo   uint32
	nodeBuf  []byte // index node image
	count    int    // index node pivots
	used     int    // bytes used in nodeBuf
	firstKey []byte // first key of the current node's subtree
	hasLeft  bool   // index node: leftmost child set
}

// NewBuilder returns a builder writing to dev with the given node size.
// emit may be nil when incremental shipping is not needed. nodeSize must
// divide the device segment size.
func NewBuilder(dev storage.Device, nodeSize int, emit EmitFunc) (*Builder, error) {
	geo := dev.Geometry()
	if nodeSize < minNodeSize || int64(nodeSize) > geo.SegmentSize() || geo.SegmentSize()%int64(nodeSize) != 0 {
		return nil, fmt.Errorf("btree: node size %d must divide segment size %d", nodeSize, geo.SegmentSize())
	}
	if emit == nil {
		emit = func(EmittedSegment) error { return nil }
	}
	// A framing device reserves trailer space at the end of each
	// segment, which costs one node slot (nodeSize >= trailer size).
	slots := int(storage.UsableCapacity(dev) / int64(nodeSize))
	if slots < 1 {
		return nil, fmt.Errorf("btree: node size %d leaves no slots in a framed segment", nodeSize)
	}
	return &Builder{dev: dev, geo: geo, nodeSize: nodeSize, slots: slots, emit: emit}, nil
}

// SetFilterCollector makes b build its level's filter, gathering the
// entries' prefixes in c, which it empties first; a builder given none
// builds no filter. Call it before the first Add; c is the caller's
// again once Finish returns.
func (b *Builder) SetFilterCollector(c *FilterCollector) {
	c.Reset()
	b.filter = c
}

func (b *Builder) newLevel(kind byte) *levelBuilder {
	lb := &levelBuilder{kind: kind}
	if kind == kindIndex {
		lb.nodeBuf = make([]byte, b.nodeSize)
		lb.used = indexFixedSize
	}
	return lb
}

// ensureSegment allocates the level's current segment if needed.
func (b *Builder) ensureSegment(lb *levelBuilder) error {
	if lb.segBuf != nil {
		return nil
	}
	seg, err := b.dev.Alloc()
	if err != nil {
		return err
	}
	lb.seg = seg
	lb.segBuf = make([]byte, b.geo.SegmentSize())
	lb.nodeIdx = 0
	b.built.Segments = append(b.built.Segments, seg)
	return nil
}

// nodeOffset returns the device offset of the next node slot of lb,
// allocating a segment when needed.
func (b *Builder) nodeOffset(lb *levelBuilder) (storage.Offset, error) {
	if err := b.ensureSegment(lb); err != nil {
		return storage.NilOffset, err
	}
	return b.geo.Pack(lb.seg, int64(lb.nodeIdx*b.nodeSize)), nil
}

// Add appends one leaf entry. Keys must arrive in strictly ascending
// order.
func (b *Builder) Add(key []byte, valueOff storage.Offset, tombstone bool) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	return b.AddEntry(LeafEntry{Prefix: kv.MakePrefix(key), ValueOff: valueOff, Tombstone: tombstone}, key, nil)
}

// AddEntry appends one leaf entry as a leaf stores it. key is the
// entry's full key when the caller holds it and nil when it does not:
// a leaf records only the prefix, so the builder reads a full key
// through fullKey only where it needs one — the first entry of each
// leaf, whose key becomes the leaf's pivot, and both sides of a prefix
// tie with the previous entry, which only the full keys can order.
// Strictly ascending prefixes are strictly ascending keys (kv.MakePrefix),
// so the order guard is as strong as comparing every key. A value offset
// a leaf cannot hold fails with ErrOffsetRange.
func (b *Builder) AddEntry(e LeafEntry, key []byte, fullKey FullKeyReader) error {
	if e.ValueOff > maxLeafOffset {
		return fmt.Errorf("%w: %#x", ErrOffsetRange, e.ValueOff)
	}
	var err error
	if b.started {
		c := b.last.Prefix.Compare(e.Prefix)
		if c == 0 {
			if key, err = resolveKey(key, e.ValueOff, fullKey); err != nil {
				return err
			}
			if len(b.lastKey) == 0 {
				prev, err := resolveKey(nil, b.last.ValueOff, fullKey)
				if err != nil {
					return err
				}
				b.lastKey = append(b.lastKey, prev...)
			}
			c = kv.Compare(b.lastKey, key)
		}
		if c >= 0 {
			return fmt.Errorf("btree: keys out of order: %q after %q",
				keyOrPrefix(key, e.Prefix), keyOrPrefix(b.lastKey, b.last.Prefix))
		}
	}

	if len(b.levels) == 0 {
		b.levels = append(b.levels, b.newLevel(kindLeaf))
	}
	leaf := b.levels[0]
	var diffHi uint64
	var diffLo uint32
	if n := len(leaf.entries); n > 0 {
		// The leaf seals at the first entry that would not fit beside the
		// others once the columns they share shrink to take it in.
		diffHi, diffLo = leaf.diffs(&e.Prefix)
		head, tail := sharedEnds(diffHi, diffLo)
		if n == maxLeafCount || leafSize(n+1, head, tail) > b.nodeSize {
			if err := b.sealNode(0); err != nil {
				return err
			}
			diffHi, diffLo = 0, 0
		}
	}
	if len(leaf.entries) == 0 {
		if key, err = resolveKey(key, e.ValueOff, fullKey); err != nil {
			return err
		}
		leaf.firstKey = append(leaf.firstKey[:0], key...)
	}
	b.started = true
	b.last = e
	b.lastKey = append(b.lastKey[:0], key...)
	leaf.diffHi, leaf.diffLo = diffHi, diffLo
	leaf.entries = append(leaf.entries, e)
	if b.filter != nil {
		b.filter.Add(&e.Prefix)
	}
	b.built.NumKeys++
	return nil
}

// diffs returns the staged leaf's prefix differences with p added.
func (lb *levelBuilder) diffs(p *kv.Prefix) (hi uint64, lo uint32) {
	first := &lb.entries[0].Prefix
	hi = lb.diffHi | (binary.BigEndian.Uint64(p[:8]) ^ binary.BigEndian.Uint64(first[:8]))
	lo = lb.diffLo | (binary.BigEndian.Uint32(p[8:]) ^ binary.BigEndian.Uint32(first[8:]))
	return hi, lo
}

// sharedEnds returns how many leading (head) and trailing (tail) prefix
// bytes a set of prefixes shares, given the OR of their differences from
// one of them: a byte position is shared iff no prefix differs there.
// For sorted prefixes the head is what the first and the last share.
// Prefixes that are all the same share a head of all twelve bytes.
func sharedEnds(diffHi uint64, diffLo uint32) (head, tail int) {
	switch {
	case diffHi != 0:
		head = bits.LeadingZeros64(diffHi) / 8
		tail = 4 + bits.TrailingZeros64(diffHi)/8
		if diffLo != 0 {
			tail = bits.TrailingZeros32(diffLo) / 8
		}
	case diffLo != 0:
		head = 8 + bits.LeadingZeros32(diffLo)/8
		tail = bits.TrailingZeros32(diffLo) / 8
	default:
		head = kv.PrefixSize
	}
	return head, tail
}

// encodeLeaf writes the staged entries into block, which is zero, as a
// leaf.
func (lb *levelBuilder) encodeLeaf(block []byte) {
	head, tail := sharedEnds(lb.diffHi, lb.diffLo)
	first := &lb.entries[0].Prefix
	setNodeHeader(block, kindLeaf, len(lb.entries))
	block[3], block[4] = byte(head), byte(tail)
	p := nodeHdrSize
	p += copy(block[p:], first[:head])
	p += copy(block[p:], first[kv.PrefixSize-tail:])
	for i := range lb.entries {
		e := &lb.entries[i]
		p += copy(block[p:], e.Prefix[head:kv.PrefixSize-tail])
		v := uint64(e.ValueOff)
		if e.Tombstone {
			v |= leafTombstone
		}
		putU48(block[p:], v)
		p += leafOffSize
	}
}

// resolveKey returns the full key of the entry at off: key when the
// caller supplied it, otherwise what fullKey reads.
func resolveKey(key []byte, off storage.Offset, fullKey FullKeyReader) ([]byte, error) {
	if key != nil {
		return key, nil
	}
	if fullKey == nil {
		return nil, fmt.Errorf("btree: entry at %#x has neither a key nor a reader for it", off)
	}
	key, err := fullKey(off)
	if err == nil && len(key) == 0 {
		err = fmt.Errorf("btree: empty key at %#x", off)
	}
	return key, err
}

// keyOrPrefix names an entry in an error: by its key when known.
func keyOrPrefix(key []byte, p kv.Prefix) []byte {
	if len(key) > 0 {
		return key
	}
	return p[:]
}

// addToIndex inserts a (pivot, child) produced by sealing a node one
// level down. It creates the level on demand.
func (b *Builder) addToIndex(level int, firstKey []byte, child storage.Offset) error {
	for len(b.levels) <= level {
		b.levels = append(b.levels, b.newLevel(kindIndex))
	}
	lb := b.levels[level]
	if !lb.hasLeft {
		// First child of a fresh index node: becomes the leftmost
		// pointer; its first key is the node's subtree first key.
		lb.firstKey = append(lb.firstKey[:0], firstKey...)
		putU64(lb.nodeBuf[nodeHdrSize:], uint64(child))
		lb.hasLeft = true
		return nil
	}
	need := indexEntrySize(firstKey)
	if indexFixedSize+need > b.nodeSize {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooLarge, len(firstKey))
	}
	if lb.used+need > b.nodeSize {
		if err := b.sealNode(level); err != nil {
			return err
		}
		// Recurse: the sealed node propagated up; this child starts
		// the next node as its leftmost.
		return b.addToIndex(level, firstKey, child)
	}
	buf := lb.nodeBuf[lb.used:]
	putU16(buf, uint16(len(firstKey)))
	copy(buf[2:], firstKey)
	putU64(buf[2+len(firstKey):], uint64(child))
	lb.used += need
	lb.count++
	return nil
}

// SealTime is the time b has spent sealing nodes so far: placing each
// sealed node in its segment, and writing and emitting each segment. It
// is read off one clock pair per node and one per segment, never per
// entry, so whatever else a pass feeding b does — its merge, and the
// staging of entries into leaves — is the caller's time minus this.
func (b *Builder) SealTime() time.Duration { return b.sealTime }

// clock adds the time since start to the seal time.
func (b *Builder) clock(start time.Time) { b.sealTime += time.Since(start) }

// sealNode finalizes the current node of the given level, places it in
// the level's segment (emitting the segment if it fills), and propagates
// the node's first key + offset to the parent level.
func (b *Builder) sealNode(level int) error {
	lb := b.levels[level]
	if !lb.hasNode() {
		return nil
	}
	off, err := b.placeNode(lb)
	if err != nil {
		return err
	}
	if lb.nodeIdx == b.slots {
		if err := b.flushSegment(lb, true); err != nil {
			return err
		}
	}

	firstKey := append([]byte(nil), lb.firstKey...)

	// Reset the node.
	lb.entries = lb.entries[:0]
	lb.diffHi, lb.diffLo = 0, 0
	clear(lb.nodeBuf)
	lb.count = 0
	lb.hasLeft = false
	lb.used = indexFixedSize
	lb.firstKey = lb.firstKey[:0]

	return b.addToIndex(level+1, firstKey, off)
}

// hasNode reports whether lb's current node holds anything.
func (lb *levelBuilder) hasNode() bool {
	if lb.kind == kindLeaf {
		return len(lb.entries) > 0
	}
	return lb.hasLeft
}

// placeNode writes lb's current node into the next free slot of the
// level's segment and returns the node's device offset.
func (b *Builder) placeNode(lb *levelBuilder) (storage.Offset, error) {
	defer b.clock(time.Now())
	off, err := b.nodeOffset(lb)
	if err != nil {
		return storage.NilOffset, err
	}
	slot := lb.segBuf[lb.nodeIdx*b.nodeSize : (lb.nodeIdx+1)*b.nodeSize]
	if lb.kind == kindLeaf {
		lb.encodeLeaf(slot)
	} else {
		setNodeHeader(lb.nodeBuf, kindIndex, lb.count)
		copy(slot, lb.nodeBuf)
	}
	lb.nodeIdx++
	return off, nil
}

// flushSegment writes the used portion of lb's segment to the device and
// emits it. full marks a sealed-full segment.
func (b *Builder) flushSegment(lb *levelBuilder, full bool) error {
	defer b.clock(time.Now())
	used := lb.nodeIdx * b.nodeSize
	if used == 0 {
		// Unused segment: release it.
		if err := b.dev.Free(lb.seg); err != nil {
			return err
		}
		b.dropSegment(lb.seg)
		lb.segBuf = nil
		return nil
	}
	data := lb.segBuf[:used]
	if err := storage.WriteFramed(b.dev, b.geo.Pack(lb.seg, 0), data, integrity.KindIndex); err != nil {
		return err
	}
	kind := SegLeaf
	if lb.kind == kindIndex {
		kind = SegIndex
	}
	// The builder is done with this buffer — the next segment gets a fresh
	// one — so the image is handed over, not copied.
	lb.segBuf = nil
	return b.emit(EmittedSegment{Seg: lb.seg, Kind: kind, Data: data})
}

// dropSegment removes seg from the built segment list.
func (b *Builder) dropSegment(seg storage.SegmentID) {
	for i, s := range b.built.Segments {
		if s == seg {
			b.built.Segments = append(b.built.Segments[:i], b.built.Segments[i+1:]...)
			return
		}
	}
}

// Finish seals all partial nodes and segments bottom-up and returns the
// built tree. An empty build yields Root == NilOffset.
func (b *Builder) Finish() (Built, error) {
	if b.built.NumKeys == 0 {
		return b.built, nil
	}
	var err error
	if b.built.Filter, err = b.filter.Build(b.built.NumKeys); err != nil {
		return Built{}, err
	}
	// Seal bottom-up. Sealing level i may append a pivot to level i+1,
	// so iterate by index (len may grow).
	for level := 0; level < len(b.levels); level++ {
		lb := b.levels[level]
		top := level == len(b.levels)-1
		if top && b.rootReady(lb) {
			// The whole level is a single node: it becomes the root.
			off, err := b.placeNode(lb)
			if err != nil {
				return Built{}, err
			}
			if err := b.flushSegment(lb, false); err != nil {
				return Built{}, err
			}
			b.built.Root = off
			return b.built, nil
		}
		if err := b.sealNode(level); err != nil {
			return Built{}, err
		}
		if lb.segBuf != nil {
			if err := b.flushSegment(lb, false); err != nil {
				return Built{}, err
			}
		}
	}
	return Built{}, fmt.Errorf("btree: build did not converge to a root")
}

// rootReady reports whether lb's current node is the only node of its
// level, i.e. nothing of this level was sealed before.
func (b *Builder) rootReady(lb *levelBuilder) bool {
	return lb.segBuf == nil && lb.nodeIdx == 0 && lb.hasNode()
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
