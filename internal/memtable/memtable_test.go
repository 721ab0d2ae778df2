package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

func TestInsertGet(t *testing.T) {
	tbl := New(1)
	if !tbl.Insert([]byte("b"), 10, false) {
		t.Fatal("first insert should be new")
	}
	if tbl.Insert([]byte("b"), 20, false) {
		t.Fatal("overwrite should not be new")
	}
	e, ok := tbl.Get([]byte("b"))
	if !ok || e.Off != 20 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := tbl.Get([]byte("a")); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTombstoneOverwrite(t *testing.T) {
	tbl := New(1)
	tbl.Insert([]byte("k"), 5, false)
	tbl.Insert([]byte("k"), 6, true)
	e, ok := tbl.Get([]byte("k"))
	if !ok || !e.Tombstone {
		t.Fatalf("entry = %+v", e)
	}
}

func TestIterationSorted(t *testing.T) {
	tbl := New(42)
	rnd := rand.New(rand.NewSource(7))
	keys := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%05d", rnd.Intn(500))
		tbl.Insert([]byte(k), storage.Offset(i), false)
		keys[k] = true
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(keys))
	}
	var got []string
	for it := tbl.Iter(); it.Valid(); it.Next() {
		got = append(got, string(it.Entry().Key))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("iteration not sorted")
	}
	if len(got) != len(keys) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(keys))
	}
}

func TestSeekGE(t *testing.T) {
	tbl := New(3)
	for _, k := range []string{"apple", "banana", "cherry", "date"} {
		tbl.Insert([]byte(k), 1, false)
	}
	it := tbl.SeekGE([]byte("b"))
	if !it.Valid() || string(it.Entry().Key) != "banana" {
		t.Fatalf("SeekGE(b) = %q", it.Entry().Key)
	}
	it = tbl.SeekGE([]byte("banana"))
	if !it.Valid() || string(it.Entry().Key) != "banana" {
		t.Fatalf("SeekGE(banana) = %q", it.Entry().Key)
	}
	it = tbl.SeekGE([]byte("zzz"))
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
}

func TestLatestWriteWins(t *testing.T) {
	tbl := New(5)
	for i := 0; i < 100; i++ {
		tbl.Insert([]byte("hot"), storage.Offset(i), false)
	}
	e, _ := tbl.Get([]byte("hot"))
	if e.Off != 99 {
		t.Fatalf("Off = %d, want 99", e.Off)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestInsertDoesNotAliasCallerKey(t *testing.T) {
	tbl := New(9)
	k := []byte("mutable")
	tbl.Insert(k, 1, false)
	k[0] = 'X'
	if _, ok := tbl.Get([]byte("mutable")); !ok {
		t.Fatal("table aliased the caller's key buffer")
	}
}

func TestPropertyMatchesReferenceMap(t *testing.T) {
	type op struct {
		Key byte
		Off uint16
	}
	f := func(ops []op) bool {
		tbl := New(11)
		ref := map[string]storage.Offset{}
		for _, o := range ops {
			k := []byte{o.Key}
			tbl.Insert(k, storage.Offset(o.Off), false)
			ref[string(k)] = storage.Offset(o.Off)
		}
		if tbl.Len() != len(ref) {
			return false
		}
		for k, off := range ref {
			e, ok := tbl.Get([]byte(k))
			if !ok || e.Off != off {
				return false
			}
		}
		// Iteration must be sorted and complete.
		prev := []byte(nil)
		n := 0
		for it := tbl.Iter(); it.Valid(); it.Next() {
			if prev != nil && kv.Compare(prev, it.Entry().Key) >= 0 {
				return false
			}
			prev = append([]byte(nil), it.Entry().Key...)
			n++
		}
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstOracle inserts keys in the order given — overwrites
// included — and holds the table to a sorted slice of the distinct
// keys: Get finds exactly those, each with its last offset and the
// prefix cut from it; iteration visits them in order; and SeekGE of any
// probe stands where a binary search of the slice does. findGE orders
// nodes by their stored prefixes and looks at a key only on a tie, so
// the key sets that matter are the ones whose prefixes collide.
func checkAgainstOracle(t *testing.T, seed int64, keys, probes [][]byte) {
	t.Helper()
	tbl := New(seed)
	last := map[string]storage.Offset{}
	for i, k := range keys {
		_, seen := last[string(k)]
		if isNew := tbl.Insert(k, storage.Offset(i+1), i%5 == 0); isNew == seen {
			t.Fatalf("Insert(%q) reported new=%v, seen before=%v", k, isNew, seen)
		}
		last[string(k)] = storage.Offset(i + 1)
	}
	sorted := make([]string, 0, len(last))
	for k := range last {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	if tbl.Len() != len(sorted) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(sorted))
	}

	it := tbl.Iter()
	for i, k := range sorted {
		if !it.Valid() || string(it.Entry().Key) != k || it.Prefix() != kv.MakePrefix([]byte(k)) {
			t.Fatalf("iteration: entry %d is not %q with its prefix", i, k)
		}
		it.Next()
		if e, ok := tbl.Get([]byte(k)); !ok || e.Off != last[k] || string(e.Key) != k {
			t.Fatalf("Get(%q) = %+v, %v, want offset %d", k, e, ok, last[k])
		}
	}
	if it.Valid() {
		t.Fatalf("iteration runs past the %d keys inserted, to %q", len(sorted), it.Entry().Key)
	}

	for _, p := range probes {
		at := sort.SearchStrings(sorted, string(p))
		it := tbl.SeekGE(p)
		switch {
		case at == len(sorted):
			if it.Valid() {
				t.Fatalf("SeekGE(%q) = %q, want the end", p, it.Entry().Key)
			}
		case !it.Valid() || string(it.Entry().Key) != sorted[at]:
			t.Fatalf("SeekGE(%q) does not stand on %q", p, sorted[at])
		}
		if _, ok := tbl.Get(p); ok != (at < len(sorted) && sorted[at] == string(p)) {
			t.Fatalf("Get(%q) found=%v", p, ok)
		}
	}
}

// TestPrefixTiesAgainstOracle is the engine's tie-heavy key population
// (lsm model_test's tieKey): three long runs that share a twelve-byte
// prefix each, and short keys that differ only in trailing zero bytes,
// which the prefix's zero padding hides.
func TestPrefixTiesAgainstOracle(t *testing.T) {
	tieKey := func(i int) []byte {
		i %= 512
		if i%16 == 0 {
			return []byte("ab" + strings.Repeat("\x00", i/16%6))
		}
		return []byte(fmt.Sprintf("sameprefix%02d-%03d", i%3, i))
	}
	rnd := rand.New(rand.NewSource(3))
	var keys, probes [][]byte
	for i := 0; i < 2000; i++ {
		keys = append(keys, tieKey(rnd.Intn(512)))
	}
	for i := 0; i < 512; i++ {
		k := tieKey(i)
		probes = append(probes, k, k[:len(k)-1], append(append([]byte(nil), k...), 0), append(append([]byte(nil), k...), 'x'))
	}
	probes = append(probes, nil, []byte("a"), []byte("sameprefix0"), []byte("sameprefix00"), []byte("sameprefix03"), []byte("z"))
	for seed := int64(1); seed <= 4; seed++ {
		checkAgainstOracle(t, seed, keys, probes)
	}
}

// FuzzOrder draws the key set itself from the fuzzer: data is cut into
// keys at every sep byte, and each key is also probed with its last
// byte dropped and with a zero byte added — the neighbours a prefix
// comparison is most likely to misplace.
func FuzzOrder(f *testing.F) {
	f.Add([]byte("ab,ab\x00,ab\x00\x00,a,b,sameprefix00-001,sameprefix00-002,sameprefix00,sameprefix0"), byte(','), int64(1))
	f.Add([]byte("twelve-bytes|twelve-bytes-and-more|twelve-bytes\x00|twelve-byte"), byte('|'), int64(7))
	f.Add([]byte{}, byte(0), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, sep byte, seed int64) {
		var keys, probes [][]byte
		for _, k := range bytes.Split(data, []byte{sep}) {
			if len(k) == 0 {
				continue
			}
			keys = append(keys, k)
			probes = append(probes, k, k[:len(k)-1], append(append([]byte(nil), k...), 0))
		}
		checkAgainstOracle(t, seed, keys, probes)
	})
}

func BenchmarkInsert(b *testing.B) {
	tbl := New(1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(keys[i], storage.Offset(i), false)
	}
}

func BenchmarkGet(b *testing.B) {
	tbl := New(1)
	const n = 100000
	for i := 0; i < n; i++ {
		tbl.Insert([]byte(fmt.Sprintf("user%012d", i)), storage.Offset(i), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get([]byte(fmt.Sprintf("user%012d", i%n)))
	}
}
