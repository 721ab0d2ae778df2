package btree

import (
	"fmt"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// FullKeyReader resolves a value-log device offset to the full key of
// the record stored there. Lookups need it only on prefix ties. How
// long the key must stay good is the consumer's to say: Tree.Get and
// the seeks compare a candidate and drop it, so a reader may hand them
// the same buffer every call; Builder.AddEntry holds one key across its
// next read, so a reader that fills two buffers by turns serves it.
type FullKeyReader func(storage.Offset) ([]byte, error)

// Tree provides read access to a built B+ tree.
type Tree struct {
	dev      storage.Device
	cache    *storage.NodeCache // dev's; nil when dev keeps none
	nodeSize int
	root     storage.Offset
}

// NewTree opens a tree rooted at root on dev. A NilOffset root denotes
// an empty tree. Point lookups and seeks go through dev's node cache
// when it keeps one (storage.NodeCacher).
func NewTree(dev storage.Device, nodeSize int, root storage.Offset) *Tree {
	return &Tree{dev: dev, cache: storage.NodeCacheOf(dev), nodeSize: nodeSize, root: root}
}

// Root returns the root device offset.
func (t *Tree) Root() storage.Offset { return t.root }

// maxDepth bounds any root-to-leaf descent. A healthy tree is a few
// levels deep; corrupt child pointers can form cycles, and the bound
// turns those into ErrCorruptNode instead of an infinite loop.
const maxDepth = 64

// node is a decoded node block. It is immutable once readNode returns
// it: the node cache shares one between every reader.
type node struct {
	block []byte    // the nodeSize-byte image; kind in block[0]
	index indexNode // pivots and children; zero for a leaf
	leaf  leaf      // the columns, in block; zero for an index node
}

func (n *node) isLeaf() bool { return n.block[0] == kindLeaf }

// size is the node's footprint in the node cache: the image plus a
// slice header per pivot and an offset per child.
func (n *node) size() int {
	return len(n.block) + len(n.index.pivots)*24 + len(n.index.children)*8
}

// readNode fetches the node block at off from the device into n,
// validates its header and decodes it, so corrupt counts and pivot
// bounds surface here as typed errors instead of out-of-range slice
// panics later.
func (t *Tree) readNode(off storage.Offset, n *node) error {
	*n = node{block: make([]byte, t.nodeSize)}
	if err := t.dev.ReadAt(off, n.block); err != nil {
		return err
	}
	return n.decode(off)
}

// decode decodes n.block, the node at off, into n.
func (n *node) decode(off storage.Offset) error {
	var err error
	switch n.block[0] {
	case kindLeaf:
		if n.leaf, err = leafOf(n.block); err != nil {
			return fmt.Errorf("%w at %#x", err, off)
		}
	case kindIndex:
		if n.index, err = decodeIndexNode(n.block); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: kind %d at %#x", ErrCorruptNode, n.block[0], off)
	}
	return nil
}

// cachedNode returns the node at off from the device's node cache,
// reading and caching it on a miss. The incarnation a missing Get
// returns predates the device read, so a node read while its segment
// was being rewritten or freed is never hit (storage.NodeCache).
func (t *Tree) cachedNode(off storage.Offset) (*node, error) {
	v, inc := t.cache.Get(off)
	if v != nil {
		return v.(*node), nil
	}
	n := new(node)
	if err := t.readNode(off, n); err != nil {
		return nil, err
	}
	t.cache.Put(off, inc, n, n.size())
	return n, nil
}

// findLeaf descends from the root to the leaf covering key.
func (t *Tree) findLeaf(key []byte) (*leaf, error) {
	off := t.root
	for depth := 0; depth < maxDepth; depth++ {
		n, err := t.cachedNode(off)
		if err != nil {
			return nil, err
		}
		if n.isLeaf() {
			return &n.leaf, nil
		}
		off = n.index.children[n.index.route(key)]
	}
	return nil, fmt.Errorf("%w: descent exceeded depth %d (pointer cycle?)", ErrCorruptNode, maxDepth)
}

// Get looks up key. found reports whether the key is present (a
// tombstone counts as present, with tombstone=true); valueOff is the
// value-log location of the record. fullKey resolves prefix ties; each
// key it returns is compared and dropped before the next call, and the
// last call made, if the key is found, was for valueOff.
func (t *Tree) Get(key []byte, fullKey FullKeyReader) (valueOff storage.Offset, tombstone, found bool, err error) {
	valueOff, tombstone, found, _, err = t.Lookup(key, fullKey)
	return valueOff, tombstone, found, err
}

// Lookup is Get that also reports whether the leaf the key routes to
// holds an entry with the key's prefix at all: tied is false when the
// leaf search ended without a tie, which is what a level filter that let
// the lookup through was wrong about.
func (t *Tree) Lookup(key []byte, fullKey FullKeyReader) (valueOff storage.Offset, tombstone, found, tied bool, err error) {
	if t.root == storage.NilOffset {
		return storage.NilOffset, false, false, false, nil
	}
	l, err := t.findLeaf(key)
	if err != nil {
		return storage.NilOffset, false, false, false, err
	}
	prefix := kv.MakePrefix(key)

	// Scan the run of equal prefixes, resolving ties via the log.
	i, tie := l.seek(&prefix)
	for ; tie && i < l.count && l.carries(i, &prefix); i++ {
		tied = true
		e := l.entry(i)
		full, err := fullKey(e.ValueOff)
		if err != nil {
			return storage.NilOffset, false, false, tied, err
		}
		switch kv.Compare(full, key) {
		case 0:
			return e.ValueOff, e.Tombstone, true, tied, nil
		case 1:
			// Entries are sorted by full key: passed the target.
			return storage.NilOffset, false, false, tied, nil
		}
	}
	return storage.NilOffset, false, false, tied, nil
}

// Iterator walks a tree's leaf entries in ascending key order, keeping a
// descent stack instead of leaf chaining so rewritten backup trees need
// no extra linkage. An Iterator may be used again: First and SeekGE
// position it over a tree afresh and keep the memory of its stack.
type Iterator struct {
	t         *Tree
	cached    bool // descents go through the node cache
	uncached  node // the node an uncached descent is standing on
	stack     []iterFrame
	leaf      leaf // the leaf it stands in; zero past the end
	pos       int
	err       error
	nodesRead int
}

// Reset empties the iterator: it keeps its stack's memory and no
// reference to a tree or a node.
func (it *Iterator) Reset() {
	stack := it.stack[:cap(it.stack)]
	clear(stack)
	*it = Iterator{stack: stack[:0]}
}

// NodesRead returns how many node blocks this iterator visited, used by
// the compaction cost model to attribute read-I/O CPU.
func (it *Iterator) NodesRead() int { return it.nodesRead }

func (it *Iterator) node(off storage.Offset) (*node, error) {
	it.nodesRead++
	if it.cached {
		return it.t.cachedNode(off)
	}
	// The frames and the leaf keep the slices, not the node, so one
	// node per iterator does and a compaction allocates as before.
	return &it.uncached, it.t.readNode(off, &it.uncached)
}

type iterFrame struct {
	node indexNode
	next int // next child index to visit
}

// First positions it at t's first entry (invalid for an empty tree). It
// reads every node from the device, past the node cache: compaction
// streams each leaf once, and its reads must neither evict the lookups'
// hot set nor drop out of the device's I/O counters.
func (it *Iterator) First(t *Tree) {
	it.Reset()
	it.t = t
	if t.root != storage.NilOffset {
		it.descend(t.root)
	}
}

// SeekGE positions it at t's first entry whose full key is >= key,
// through the node cache. fullKey resolves prefix ties; each key it
// returns is compared and dropped before the next call.
func (it *Iterator) SeekGE(t *Tree, key []byte, fullKey FullKeyReader) error {
	it.Reset()
	it.t, it.cached = t, true
	if t.root == storage.NilOffset {
		return nil
	}
	off := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			it.err = fmt.Errorf("%w: descent exceeded depth %d (pointer cycle?)", ErrCorruptNode, maxDepth)
			return it.err
		}
		n, err := it.node(off)
		if err != nil {
			it.err = err
			return err
		}
		if n.isLeaf() {
			it.leaf, it.pos = n.leaf, 0
			break
		}
		child := n.index.route(key)
		it.stack = append(it.stack, iterFrame{node: n.index, next: child + 1})
		off = n.index.children[child]
	}
	// Advance within the leaf to the first entry >= key: past every
	// smaller prefix by binary search, then through the run of equal
	// prefixes in full-key order.
	prefix := kv.MakePrefix(key)
	var tie bool
	for it.pos, tie = it.leaf.seek(&prefix); it.pos < it.leaf.count; it.pos++ {
		if !tie || !it.leaf.carries(it.pos, &prefix) {
			return nil
		}
		full, err := fullKey(it.Entry().ValueOff)
		if err != nil {
			it.err = err
			return err
		}
		if kv.Compare(full, key) >= 0 {
			return nil
		}
	}
	// Leaf exhausted: step to the next leaf.
	it.advanceLeaf()
	return it.err
}

// descend pushes the leftmost path from off onto the stack and loads the
// first leaf.
func (it *Iterator) descend(off storage.Offset) {
	for depth := 0; ; depth++ {
		if depth >= maxDepth || len(it.stack) >= maxDepth {
			it.err = fmt.Errorf("%w: descent exceeded depth %d (pointer cycle?)", ErrCorruptNode, maxDepth)
			return
		}
		n, err := it.node(off)
		if err != nil {
			it.err = err
			return
		}
		if n.isLeaf() {
			it.leaf, it.pos = n.leaf, 0
			return
		}
		it.stack = append(it.stack, iterFrame{node: n.index, next: 1})
		off = n.index.children[0]
	}
}

// advanceLeaf moves to the first entry of the next leaf, popping
// exhausted index frames.
func (it *Iterator) advanceLeaf() {
	it.leaf = leaf{}
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		if top.next >= len(top.node.children) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		child := top.node.children[top.next]
		top.next++
		it.descend(child)
		return
	}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool {
	return it.err == nil && it.pos < it.leaf.count
}

// Err returns the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }

// Entry returns the current leaf entry. The iterator must be valid.
func (it *Iterator) Entry() LeafEntry {
	return it.leaf.entry(it.pos)
}

// Next advances to the following entry.
func (it *Iterator) Next() {
	it.pos++
	if it.pos >= it.leaf.count {
		it.advanceLeaf()
	}
}
