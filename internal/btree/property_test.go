package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// randomKeySet builds a sorted set of n random keys.
func randomKeySet(rnd *rand.Rand, n int) [][]byte {
	set := map[string]bool{}
	for len(set) < n {
		klen := 1 + rnd.Intn(28)
		k := make([]byte, klen)
		for i := range k {
			k[i] = byte('!' + rnd.Intn(94)) // printable ASCII
		}
		set[string(k)] = true
	}
	keys := make([][]byte, 0, n)
	for k := range set {
		keys = append(keys, []byte(k))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// checkSeekGE compares SeekGE(q) over a tree built from the sorted keys
// with a reference binary search: the first key >= q, or exhausted.
func checkSeekGE(t *testing.T, tree *Tree, fl *fakeLog, keys [][]byte, q []byte) {
	t.Helper()
	it, err := seekGE(tree, q, fl.reader())
	if err != nil {
		t.Fatalf("SeekGE(%q): %v", q, err)
	}
	i := sort.Search(len(keys), func(i int) bool { return kv.Compare(keys[i], q) >= 0 })
	if i == len(keys) {
		if it.Valid() {
			full, _ := fl.reader()(it.Entry().ValueOff)
			t.Fatalf("SeekGE(%q) = %q, want exhausted", q, full)
		}
		return
	}
	if !it.Valid() {
		t.Fatalf("SeekGE(%q) exhausted, want %q", q, keys[i])
	}
	full, err := fl.reader()(it.Entry().ValueOff)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Compare(full, keys[i]) != 0 {
		t.Fatalf("SeekGE(%q) = %q, want %q", q, full, keys[i])
	}
}

// TestSeekGEProperty checks SeekGE against a reference binary search for
// random key sets and random probes (present keys, absent keys, and
// prefixes of present keys).
func TestSeekGEProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(1234))
	for round := 0; round < 6; round++ {
		dev := newDev(t, 4096)
		keys := randomKeySet(rnd, 300+rnd.Intn(1200))
		tree, fl, _ := buildTree(t, dev, 512, keys, nil)

		probe := func(q []byte) {
			t.Helper()
			checkSeekGE(t, tree, fl, keys, q)
		}

		for trial := 0; trial < 120; trial++ {
			switch trial % 3 {
			case 0: // a present key
				probe(keys[rnd.Intn(len(keys))])
			case 1: // random bytes
				q := make([]byte, 1+rnd.Intn(20))
				for i := range q {
					q[i] = byte('!' + rnd.Intn(94))
				}
				probe(q)
			case 2: // a prefix or extension of a present key
				k := keys[rnd.Intn(len(keys))]
				if rnd.Intn(2) == 0 && len(k) > 1 {
					probe(k[:1+rnd.Intn(len(k)-1)])
				} else {
					probe(append(append([]byte(nil), k...), byte('!'+rnd.Intn(94))))
				}
			}
		}
	}
}

// TestIteratorCountMatchesBuildProperty: iterating any built tree yields
// exactly the built key count, in order, for varied node sizes.
func TestIteratorCountMatchesBuildProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for _, nodeSize := range []int{128, 256, 512, 1024} {
		dev := newDev(t, 4096)
		keys := randomKeySet(rnd, 700)
		tree, fl, built := buildTree(t, dev, nodeSize, keys, nil)
		if built.NumKeys != len(keys) {
			t.Fatalf("nodeSize %d: NumKeys %d != %d", nodeSize, built.NumKeys, len(keys))
		}
		n := 0
		prev := []byte(nil)
		for it := first(tree); it.Valid(); it.Next() {
			full, err := fl.reader()(it.Entry().ValueOff)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && kv.Compare(prev, full) >= 0 {
				t.Fatalf("nodeSize %d: order violated at %d", nodeSize, n)
			}
			prev = append(prev[:0], full...)
			n++
		}
		if err := first(tree).Err(); err != nil {
			t.Fatal(err)
		}
		if n != len(keys) {
			t.Fatalf("nodeSize %d: iterated %d of %d", nodeSize, n, len(keys))
		}
	}
}

// TestRewritePreservesStructureProperty: rewriting with identity maps
// must leave lookups intact for random trees.
func TestRewritePreservesStructureProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(777))
	for round := 0; round < 4; round++ {
		const nodeSize = 256
		dev := newDev(t, 2048)
		keys := randomKeySet(rnd, 400)
		fl := newFakeLog(dev.Geometry())

		var emitted []EmittedSegment
		b, _ := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
			emitted = append(emitted, EmittedSegment{
				Seg: es.Seg, Data: append([]byte(nil), es.Data...),
			})
			return nil
		})
		for _, k := range keys {
			if err := b.Add(k, fl.add(k), false); err != nil {
				t.Fatal(err)
			}
		}
		built, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}

		// Identity rewrite, then write back over the original segments:
		// lookups must be unchanged.
		identity := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
		total := 0
		for _, es := range emitted {
			n, err := RewriteSegment(es.Data, nodeSize, dev.Geometry(), identity, identity)
			if err != nil {
				t.Fatal(err)
			}
			total += n
			if err := dev.WriteAt(dev.Geometry().Pack(es.Seg, 0), es.Data); err != nil {
				t.Fatal(err)
			}
		}
		if total < len(keys) {
			t.Fatalf("rewrote %d pointers for %d keys", total, len(keys))
		}
		tree := NewTree(dev, nodeSize, built.Root)
		for _, k := range keys {
			if _, _, found, err := tree.Get(k, fl.reader()); err != nil || !found {
				t.Fatalf("round %d: Get(%q) after identity rewrite = %v, %v", round, k, found, err)
			}
		}
		if _, _, found, _ := tree.Get([]byte(fmt.Sprintf("absent-%d", round)), fl.reader()); found {
			t.Fatal("absent key found after rewrite")
		}
	}
}
