package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// benchKey is the benchmark's key of record i (ycsb.Key): the FNV-1a
// hash of i's eight little-endian bytes, big-endian, then i in 16
// decimal digits.
func benchKey(i uint64) []byte {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	h.Write(b[:])
	return fmt.Appendf(binary.BigEndian.AppendUint64(nil, h.Sum64()), "%016d", i)
}

// TestLeafLayoutHoldsBenchmarkKeys counts what the columnar leaf is for:
// 64 K benchmark keys fill at most 236 leaves of 4 KB, 0.70 of the 338
// that 21-byte entries took. The keys share their four leading digits,
// so every row is the hash bytes a leaf does not share plus an offset.
func TestLeafLayoutHoldsBenchmarkKeys(t *testing.T) {
	const n, nodeSize = 1 << 16, 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(uint64(i))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	dev := newDev(t, 256<<10)
	fl := newFakeLog(dev.Geometry())
	leaves := 0
	b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
		for off := 0; off < len(es.Data); off += nodeSize {
			if es.Data[off] == kindLeaf {
				leaves++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := b.Add(k, fl.add(k), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d benchmark keys in %d leaves of %d bytes (%.0f a leaf)", n, leaves, nodeSize, float64(n)/float64(leaves))
	if leaves > 236 {
		t.Fatalf("%d keys took %d leaves, want <= 236", n, leaves)
	}
}

// layoutKeys draws a sorted key set whose prefixes share what leaves
// compress: a head of 0–14 bytes (past 12 every prefix is the same and
// the middle column is empty), a tail of 0–4, a middle of 0–3 bytes over
// a small alphabet with zero in it, and extensions that tie on the prefix.
func layoutKeys(rnd *rand.Rand) [][]byte {
	const alphabet = "\x00\x01ab\xfe\xff"
	draw := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rnd.Intn(len(alphabet))]
		}
		return string(b)
	}
	head, tail := draw(rnd.Intn(15)), draw(rnd.Intn(5))
	n := 1 + rnd.Intn(1200)
	set := map[string]bool{}
	for tries := 0; len(set) < n && tries < 20*n; tries++ {
		k := head + draw(rnd.Intn(4)) + tail
		if rnd.Intn(3) == 0 {
			k += draw(1 + rnd.Intn(3))
		}
		if k != "" {
			set[k] = true
		}
	}
	keys := make([][]byte, 0, len(set))
	for k := range set {
		keys = append(keys, []byte(k))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// checkMaximalColumns fails unless a leaf's head and tail are all its
// rows share: the columns PackLeaf ships are the ones it read off the
// rows before leaves were columnar, so the wire pays what it paid.
func checkMaximalColumns(t *testing.T, l leaf) {
	t.Helper()
	if l.count < 2 || l.mid == 0 {
		return
	}
	first, last := true, true
	for i := 1; i < l.count; i++ {
		first = first && l.middle(i)[0] == l.middle(0)[0]
		last = last && l.middle(i)[l.mid-1] == l.middle(0)[l.mid-1]
	}
	if first || last {
		t.Fatalf("leaf of %d rows with head %d, tail %d: its rows share a column the header does not", l.count, len(l.head), len(l.tail))
	}
}

// TestLeafLayoutProperty: whatever keys share — a long head, a tail, the
// whole prefix —, with tombstones and offsets at the field's edge, a
// Builder's tree answers Get, SeekGE and a walk from First as a sorted
// model does; an offset of 2⁴⁷ is refused with ErrOffsetRange and leaves
// the build intact; and every leaf written states the columns its rows
// share and packs and unpacks bit for bit.
func TestLeafLayoutProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(47))
	emptyMiddles, edgeOffsets := 0, 0
	for round := 0; round < 24; round++ {
		nodeSize := []int{64, 128, 512, 4096}[round%4]
		keys := layoutKeys(rnd)
		type rec struct {
			off  storage.Offset
			tomb bool
		}
		model := make([]rec, len(keys))
		byOff := map[storage.Offset][]byte{}
		present := map[string]bool{}
		for i, k := range keys {
			present[string(k)] = true
			off := storage.Offset(rnd.Int63n(maxLeafOffset))
			if rnd.Intn(8) == 0 {
				off = maxLeafOffset - storage.Offset(i)
				edgeOffsets++
			}
			for byOff[off] != nil {
				off--
			}
			model[i] = rec{off, rnd.Intn(5) == 0}
			byOff[off] = k
		}

		dev := newDev(t, 16<<10)
		var pages [][]byte
		b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
			for off := 0; off < len(es.Data); off += nodeSize {
				pages = append(pages, es.Data[off:off+nodeSize])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		refuseAt := rnd.Intn(len(keys))
		for i, k := range keys {
			if i == refuseAt {
				if err := b.Add(k, maxLeafOffset+1, false); !errors.Is(err, ErrOffsetRange) {
					t.Fatalf("round %d: Add at 2^47 = %v, want ErrOffsetRange", round, err)
				}
			}
			if err := b.Add(k, model[i].off, model[i].tomb); err != nil {
				t.Fatalf("round %d: Add(%q): %v", round, k, err)
			}
		}
		built, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		tree := NewTree(dev, nodeSize, built.Root)
		fl := &fakeLog{geo: dev.Geometry(), keys: byOff}

		for i, k := range keys {
			off, tomb, found, err := tree.Get(k, fl.reader())
			if err != nil || !found || off != model[i].off || tomb != model[i].tomb {
				t.Fatalf("round %d (node %d): Get(%q) = %#x, %v, %v, %v; want %#x, %v", round, nodeSize, k, off, tomb, found, err, model[i].off, model[i].tomb)
			}
		}
		it := first(tree)
		for i := range keys {
			if !it.Valid() {
				t.Fatalf("round %d: walk ended after %d of %d entries (%v)", round, i, len(keys), it.Err())
			}
			want := LeafEntry{Prefix: kv.MakePrefix(keys[i]), ValueOff: model[i].off, Tombstone: model[i].tomb}
			if e := it.Entry(); e != want {
				t.Fatalf("round %d: entry %d = %+v, want %+v", round, i, e, want)
			}
			it.Next()
		}
		if it.Valid() || it.Err() != nil {
			t.Fatalf("round %d: walk runs past %d entries (%v)", round, len(keys), it.Err())
		}
		for trial := 0; trial < 60; trial++ {
			k := keys[rnd.Intn(len(keys))]
			q := k
			switch trial % 4 {
			case 1:
				q = append(append([]byte(nil), k...), 0)
			case 2:
				q = k[:rnd.Intn(len(k))]
			case 3:
				q = append(append([]byte(nil), k...), 0xff)
				if _, _, found, err := tree.Get(q, fl.reader()); err != nil || found != present[string(q)] {
					t.Fatalf("round %d: Get(%q) = found %v, %v", round, q, found, err)
				}
			}
			checkSeekGE(t, tree, fl, keys, q)
		}

		leaves := 0
		for _, page := range pages {
			if page[0] != kindLeaf {
				continue
			}
			leaves++
			l, err := leafOf(page)
			if err != nil {
				t.Fatal(err)
			}
			checkMaximalColumns(t, l)
			if l.mid == 0 && l.count > 1 {
				emptyMiddles++
			}
			if _, ok := checkPackRoundTrip(t, page); !ok {
				t.Fatalf("round %d: PackLeaf refused a built leaf of %d entries", round, l.count)
			}
		}
		if leaves == 0 {
			t.Fatalf("round %d: no leaf emitted", round)
		}
	}
	if emptyMiddles == 0 || edgeOffsets == 0 {
		t.Fatalf("%d leaves with an empty middle column, %d offsets at the field's edge: the draw lost its premise", emptyMiddles, edgeOffsets)
	}
}
