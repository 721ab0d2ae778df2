package btree

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// tieHeavyKeys is a sorted key set built to exercise the prefix rule:
// keys of exactly the prefix size and extensions of them, long runs
// sharing all twelve prefix bytes, and keys shorter than the prefix
// that differ only in trailing zero bytes ("ab" < "ab\x00", equal
// prefixes).
func tieHeavyKeys() [][]byte {
	set := map[string]bool{}
	for i := 0; i < 600; i++ {
		set[fmt.Sprintf("user%08d", i*7)] = true // exactly kv.PrefixSize bytes
		if i%5 == 0 {
			set[fmt.Sprintf("user%08d-ext%d", i*7, i)] = true
		}
	}
	for i := 0; i < 300; i++ {
		set[fmt.Sprintf("sameprefix00-%05d", i)] = true
		set[fmt.Sprintf("sameprefix01%c", 'a'+i%26)] = true
	}
	for _, k := range []string{"a", "a\x00", "ab", "ab\x00", "ab\x00\x00", "ab\x00\x01", "abc", "b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"} {
		set[k] = true
	}
	keys := make([][]byte, 0, len(set))
	for k := range set {
		keys = append(keys, []byte(k))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// buildEmitted builds keys into a fresh device, supplying each key to
// the builder (withKeys) or leaving every one to the reader, and
// returns what the build emitted plus how many keys the reader served.
func buildEmitted(t *testing.T, keys [][]byte, withKeys bool) (*Tree, *fakeLog, []EmittedSegment, Built, int) {
	t.Helper()
	const nodeSize = 256
	dev := newDev(t, 2048)
	fl := newFakeLog(dev.Geometry())
	var emitted []EmittedSegment
	b, err := NewBuilder(dev, nodeSize, func(es EmittedSegment) error {
		emitted = append(emitted, es)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	reader := func(off storage.Offset) ([]byte, error) {
		reads++
		return fl.reader()(off)
	}
	for i, k := range keys {
		e := LeafEntry{Prefix: kv.MakePrefix(k), ValueOff: fl.add(k), Tombstone: i%9 == 0}
		if withKeys {
			err = b.Add(k, e.ValueOff, e.Tombstone)
		} else {
			err = b.AddEntry(e, nil, reader)
		}
		if err != nil {
			t.Fatalf("add %q (withKeys=%v): %v", k, withKeys, err)
		}
	}
	built, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return NewTree(dev, nodeSize, built.Root), fl, emitted, built, reads
}

// TestBuilderLazyKeysDifferential: a builder handed prefixes only, which
// reads a full key just for leaf pivots and prefix ties, emits the same
// bytes as one handed every key.
func TestBuilderLazyKeysDifferential(t *testing.T) {
	keys := tieHeavyKeys()
	_, _, eager, eagerBuilt, eagerReads := buildEmitted(t, keys, true)
	tree, fl, lazy, lazyBuilt, lazyReads := buildEmitted(t, keys, false)

	if eagerReads != 0 {
		t.Fatalf("a build given every key read %d through the reader", eagerReads)
	}
	if !reflect.DeepEqual(eagerBuilt, lazyBuilt) {
		t.Fatalf("Built differs: eager %+v, lazy %+v", eagerBuilt, lazyBuilt)
	}
	if len(eager) != len(lazy) {
		t.Fatalf("emitted %d segments with keys, %d without", len(eager), len(lazy))
	}
	for i := range eager {
		if eager[i].Seg != lazy[i].Seg || !bytes.Equal(eager[i].Data, lazy[i].Data) {
			t.Fatalf("segment %d differs between the two builds", i)
		}
	}
	// The lazy build read some keys (pivots, ties) and by no means all
	// of them twice over.
	if lazyReads == 0 || lazyReads > 2*len(keys) {
		t.Fatalf("lazy build read %d keys for %d entries", lazyReads, len(keys))
	}

	// The tree answers in key order through every tie.
	for _, k := range keys {
		if _, _, found, err := tree.Get(k, fl.reader()); err != nil || !found {
			t.Fatalf("Get(%q) = %v, %v", k, found, err)
		}
		checkSeekGE(t, tree, fl, keys, k)
		checkSeekGE(t, tree, fl, keys, append(append([]byte(nil), k...), 0))
		checkSeekGE(t, tree, fl, keys, k[:len(k)-1])
	}
}

// TestBuilderLazyKeysReadsOnePivotPerLeaf: with no two prefixes equal
// the only keys a prefix-fed build reads are the leaves' first ones.
func TestBuilderLazyKeysReadsOnePivotPerLeaf(t *testing.T) {
	keys := sortedKeys(3000, "user%08d")
	_, _, emitted, _, reads := buildEmitted(t, keys, false)
	leaves := 0
	for _, es := range emitted {
		for off := 0; off < len(es.Data); off += 256 {
			if IsLeaf(es.Data[off:]) {
				leaves++
			}
		}
	}
	if reads != leaves {
		t.Fatalf("read %d keys building %d leaves", reads, leaves)
	}
}

// TestBuilderLazyKeysRejectOutOfOrder: the order guard is as strong
// without keys as with them — across prefixes without reading, inside
// a prefix tie by reading both keys.
func TestBuilderLazyKeysRejectOutOfOrder(t *testing.T) {
	dev := newDev(t, 4096)
	fl := newFakeLog(dev.Geometry())
	b, _ := NewBuilder(dev, 512, nil)
	entry := func(k string) LeafEntry {
		return LeafEntry{Prefix: kv.MakePrefix([]byte(k)), ValueOff: fl.add([]byte(k))}
	}
	mustAdd := func(k string) {
		t.Helper()
		if err := b.AddEntry(entry(k), nil, fl.reader()); err != nil {
			t.Fatalf("AddEntry(%q): %v", k, err)
		}
	}
	mustReject := func(k string) {
		t.Helper()
		if err := b.AddEntry(entry(k), nil, fl.reader()); err == nil {
			t.Fatalf("AddEntry(%q) out of order was accepted", k)
		}
	}
	mustAdd("ab")
	mustReject("ab")  // duplicate, equal prefixes
	mustAdd("ab\x00") // same prefix, larger key
	mustReject("ab")  // same prefix, smaller key
	mustReject("aa")  // smaller prefix
	mustAdd("sameprefix00-00002")
	mustReject("sameprefix00-00001")
	mustReject("sameprefix00-00002")
	mustAdd("sameprefix00-00003")
	// "zz" opens no leaf and ties with nothing: no key is needed.
	if err := b.AddEntry(entry("zz"), nil, nil); err != nil {
		t.Fatalf("AddEntry without a reader where none is needed: %v", err)
	}
	if err := b.AddEntry(entry("zz"), nil, nil); err == nil {
		t.Fatal("a prefix tie with neither keys nor a reader was accepted")
	}
}
