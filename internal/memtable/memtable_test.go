package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestPropertyMatchesReferenceMap holds the table to a map over runs
// long enough to split blocks several times: each run draws its keys
// from a space of a thousand two-byte keys, in random, ascending or
// descending order, and overwrites about a third of them.
func TestPropertyMatchesReferenceMap(t *testing.T) {
	type op struct {
		Key uint16
		Off uint16
	}
	f := func(seed int64, shape uint8, extra []op) bool {
		rnd := rand.New(rand.NewSource(seed))
		ops := make([]op, 6*blockCap)
		for i := range ops {
			ops[i] = op{Key: uint16(rnd.Intn(1000)), Off: uint16(i)}
		}
		switch shape % 3 {
		case 1:
			sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
		case 2:
			sort.Slice(ops, func(i, j int) bool { return ops[i].Key > ops[j].Key })
		}
		ops = append(ops, extra...)
		tbl := New(11)
		ref := map[string]storage.Offset{}
		for _, o := range ops {
			k := []byte{byte(o.Key >> 8), byte(o.Key)}
			tbl.Insert(k, storage.Offset(o.Off), false)
			ref[string(k)] = storage.Offset(o.Off)
		}
		if tbl.Len() != len(ref) || len(tbl.dir) < 4 {
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
// probe stands where a binary search of the slice does. find orders
// entries by their stored prefixes and looks at a key only on a tie, so
// the key sets that matter are the ones whose prefixes collide. Every
// check also holds the table's own invariants (checkShape).
func checkAgainstOracle(t *testing.T, seed int64, keys, probes [][]byte) *Table {
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
	checkShape(t, tbl)
	return tbl
}

// checkShape holds tbl to what find relies on: every block is in the
// directory once and holds between one and blockCap entries, a
// directory entry's prefix is its block's first entry's, entries ascend
// within and across blocks, and the sizes Bytes counts with are the
// types'.
func checkShape(t *testing.T, tbl *Table) {
	t.Helper()
	if unsafe.Sizeof(slot{}) != 32 || unsafe.Sizeof(run{}) != 20 {
		t.Fatalf("slot is %d bytes and run %d; Bytes counts 32 and 20", unsafe.Sizeof(slot{}), unsafe.Sizeof(run{}))
	}
	seen := map[uint32]bool{}
	var prev []byte
	total := 0
	for d, r := range tbl.dir {
		if r.n < 1 || r.n > blockCap || seen[r.blk] || int(r.blk) >= len(tbl.dir) {
			t.Fatalf("directory entry %d: block %d with %d entries (seen before: %v)", d, r.blk, r.n, seen[r.blk])
		}
		seen[r.blk] = true
		b := tbl.block(d)
		if r.prefix != b[0].prefix {
			t.Fatalf("directory entry %d carries prefix %q, its block starts with %q", d, r.prefix, b[0].prefix)
		}
		for i := range b {
			k := tbl.key(&b[i])
			if b[i].prefix != kv.MakePrefix(k) || (prev != nil && kv.Compare(prev, k) >= 0) {
				t.Fatalf("block %d entry %d: %q after %q, stored prefix %q", d, i, k, prev, b[i].prefix)
			}
			prev = k
		}
		total += len(b)
	}
	if total != tbl.Len() {
		t.Fatalf("blocks hold %d entries, Len = %d", total, tbl.Len())
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

// runKeys returns n keys that share their first twelve bytes when tie
// is set and differ inside them otherwise, in ascending order.
func runKeys(n int, tie bool) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = runKey(i, tie)
	}
	return keys
}

func runKey(i int, tie bool) []byte {
	if tie {
		return []byte(fmt.Sprintf("one-prefix--%04d", i))
	}
	return []byte(fmt.Sprintf("k%04d", i))
}

// TestBlockSplitsAgainstOracle runs the oracle over insert orders that
// split blocks in every way there is: ascending runs (the split that
// leaves a full block behind), descending runs (every insert at the
// table's first position), an all-one-prefix run (every comparison a
// tie, every split inside one) and a shuffled run, each longer than
// three blocks, each followed by overwrites.
func TestBlockSplitsAgainstOracle(t *testing.T) {
	const n = 3*blockCap + 17
	reversed := func(keys [][]byte) [][]byte {
		out := append([][]byte(nil), keys...)
		slices.Reverse(out)
		return out
	}
	shuffled := func(keys [][]byte) [][]byte {
		out := append([][]byte(nil), keys...)
		rand.New(rand.NewSource(5)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for name, keys := range map[string][][]byte{
		"ascending":           runKeys(n, false),
		"descending":          reversed(runKeys(n, false)),
		"shuffled":            shuffled(runKeys(n, false)),
		"one prefix":          shuffled(runKeys(n, true)),
		"one prefix, up":      runKeys(n, true),
		"one prefix, down":    reversed(runKeys(n, true)),
		"up, then overwrites": append(runKeys(n, false), shuffled(runKeys(n, false))[:n/2]...),
	} {
		t.Run(name, func(t *testing.T) {
			var probes [][]byte
			for _, k := range keys {
				probes = append(probes, k, k[:len(k)-1], append(append([]byte(nil), k...), 0))
			}
			tbl := checkAgainstOracle(t, 1, keys, append(probes, nil, []byte("zzz")))
			if len(tbl.dir) < 4 {
				t.Fatalf("%d keys made %d blocks; the run was to split several", n, len(tbl.dir))
			}
			if name == "ascending" && len(tbl.dir) > n/(blockCap-1)+1 {
				t.Fatalf("an ascending run of %d keys spread over %d blocks", n, len(tbl.dir))
			}
		})
	}
}

// TestBlockEdges walks the places where a block ends: SeekGE of a
// block's last entry stands on it and Next crosses to the next block's
// first; SeekGE of a key between the two blocks stands on that first
// entry; past the last block the iterator is invalid. Then every
// block's first entry — the one the directory describes — is
// overwritten and tombstoned in place.
func TestBlockEdges(t *testing.T) {
	keys := runKeys(5*blockCap, true)
	rand.New(rand.NewSource(9)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	tbl := New(0)
	for i, k := range keys {
		tbl.Insert(k, storage.Offset(i+1), false)
	}
	if len(tbl.dir) < 5 {
		t.Fatalf("%d blocks", len(tbl.dir))
	}
	for d := range tbl.dir {
		b := tbl.block(d)
		first, last := tbl.key(&b[0]), tbl.key(&b[len(b)-1])
		it := tbl.SeekGE(last)
		if !it.Valid() || !bytes.Equal(it.Entry().Key, last) || it.Prefix() != kv.MakePrefix(last) {
			t.Fatalf("block %d: SeekGE of its last entry %q does not stand on it", d, last)
		}
		it.Next()
		between := tbl.SeekGE(append(append([]byte(nil), last...), 0))
		if d == len(tbl.dir)-1 {
			if it.Valid() || between.Valid() {
				t.Fatalf("iterators run past the last entry %q", last)
			}
		} else {
			next := tbl.key(&tbl.block(d + 1)[0])
			if !it.Valid() || !bytes.Equal(it.Entry().Key, next) || !between.Valid() || !bytes.Equal(between.Entry().Key, next) {
				t.Fatalf("block %d ends at %q: Next and SeekGE past it do not reach %q", d, last, next)
			}
		}

		prev, over := tbl.InsertPrev(first, 7777, true)
		if !over || !bytes.Equal(prev.Key, first) || prev.Tombstone || prev.Off == 7777 {
			t.Fatalf("block %d: overwriting its first entry %q replaced %+v, %v", d, first, prev, over)
		}
		if e, ok := tbl.Get(first); !ok || e.Off != 7777 || !e.Tombstone || !bytes.Equal(e.Key, first) {
			t.Fatalf("block %d: Get(%q) after the tombstone = %+v, %v", d, first, e, ok)
		}
		if prev, _ := tbl.InsertPrev(first, 7778, false); !prev.Tombstone || prev.Off != 7777 {
			t.Fatalf("block %d: the tombstone of %q read back as %+v", d, first, prev)
		}
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d after overwrites, want %d", tbl.Len(), len(keys))
	}
	checkShape(t, tbl)
}

// TestEntryKeyOutlivesArenaGrowth: an Entry's Key aliases the table's
// arena, and the arena only ever grows by whole chunks — the bytes a
// caller got early are the same bytes, at the same address, after the
// table has added several chunks and split many blocks; a key longer
// than a chunk gets one of its own.
func TestEntryKeyOutlivesArenaGrowth(t *testing.T) {
	tbl := New(0)
	early := []byte("the-early-key")
	tbl.Insert(early, 1, false)
	held, _ := tbl.Get(early)
	long := bytes.Repeat([]byte("L"), chunkSize+100)
	tbl.Insert(long, 2, false)
	for i := 0; len(tbl.chunks) < 6; i++ {
		tbl.Insert([]byte(fmt.Sprintf("filler-%06d-%s", i, strings.Repeat("x", 100))), 3, false)
	}
	if len(tbl.dir) < 4 {
		t.Fatalf("%d blocks", len(tbl.dir))
	}
	now, ok := tbl.Get(early)
	if !ok || !bytes.Equal(held.Key, early) || &held.Key[0] != &now.Key[0] || cap(held.Key) != len(early) {
		t.Fatalf("the key held since the first insert is %q (cap %d), now %q", held.Key, cap(held.Key), now.Key)
	}
	if e, ok := tbl.Get(long); !ok || !bytes.Equal(e.Key, long) {
		t.Fatal("the key longer than a chunk did not come back whole")
	}
	var chunks int64
	for _, c := range tbl.chunks {
		chunks += int64(cap(c))
	}
	if want := int64(len(tbl.slabs))*slabBlocks*blockCap*32 + int64(cap(tbl.dir))*20 + chunks; tbl.Bytes() != want {
		t.Fatalf("Bytes = %d, the table has allocated %d", tbl.Bytes(), want)
	}
}

// TestFirstInsertsAllocateByTheSlab: the table's memory arrives in slabs
// and chunks, not per key. 4096 first inserts — a whole L0 at the
// benchmark's L0MaxKeys — of 24-byte keys allocate, all told: the
// table, a dozen 16 KB slabs (the blocks of a random fill run about
// 70 % full), six or seven 16 KB chunks, and the doublings of the
// directory, slab and chunk slices. The skiplist allocated 3 × 4096.
func TestFirstInsertsAllocateByTheSlab(t *testing.T) {
	const ceiling = 48
	keys := benchKeys(benchL0)
	got := testing.AllocsPerRun(10, func() {
		tbl := New(0)
		for i, k := range keys {
			tbl.Insert(k, storage.Offset(i), false)
		}
	})
	if got > ceiling {
		t.Fatalf("%d first inserts allocated %v times in total, ceiling %d", benchL0, got, ceiling)
	}
	t.Logf("%d first inserts: %v allocations in total (ceiling %d)", benchL0, got, ceiling)
}

// FuzzOrder draws the key set itself from the fuzzer: data is cut into
// keys at every sep byte, and each key is also probed with its last
// byte dropped and with a zero byte added — the neighbours a prefix
// comparison is most likely to misplace.
func FuzzOrder(f *testing.F) {
	f.Add([]byte("ab,ab\x00,ab\x00\x00,a,b,sameprefix00-001,sameprefix00-002,sameprefix00,sameprefix0"), byte(','), int64(1))
	f.Add([]byte("twelve-bytes|twelve-bytes-and-more|twelve-bytes\x00|twelve-byte"), byte('|'), int64(7))
	f.Add([]byte{}, byte(0), int64(0))
	// Four blocks' worth, half of it one long prefix tie, in an order
	// that splits blocks from both ends and in the middle.
	var big [][]byte
	for i := 0; i < 4*blockCap; i++ {
		j := i * 37 % (4 * blockCap)
		big = append(big, runKey(j, j%2 == 0))
	}
	f.Add(bytes.Join(big, []byte{';'}), byte(';'), int64(3))
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

// benchKeys returns n keys of YCSB's shape in scrambled order: what a
// region's L0 sees, where consecutive puts land far apart.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%020d", uint64(i+1)*0x9e3779b97f4a7c15))
	}
	return keys
}

// benchL0 is the benchmark's L0MaxKeys: the engine cuts a table there.
const benchL0 = 4096

// BenchmarkInsert is a key's first insert into a table the engine would
// cut every benchL0 keys; allocs/op includes the tables themselves.
func BenchmarkInsert(b *testing.B) {
	keys := benchKeys(16 * benchL0)
	b.ReportAllocs()
	b.ResetTimer()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		if i%benchL0 == 0 {
			tbl = New(int64(i))
		}
		tbl.Insert(keys[i%len(keys)], storage.Offset(i), false)
	}
}

// BenchmarkGet looks keys up in a table half an L0 full — what a get
// finds on average — half of them present.
func BenchmarkGet(b *testing.B) {
	keys := benchKeys(benchL0)
	tbl := New(1)
	for _, k := range keys[:benchL0/2] {
		tbl.Insert(k, 1, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Get(keys[i%len(keys)])
	}
}
