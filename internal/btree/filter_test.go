package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// orderedKey is ycsb.OrderedKey's shape: record i big-endian, then i in
// 16 decimal digits. Its prefixes differ only in their low bytes.
func orderedKey(i uint64) []byte {
	return fmt.Appendf(binary.BigEndian.AppendUint64(nil, i), "%016d", i)
}

// filterOf builds the filter of keys' prefixes.
func filterOf(t testing.TB, keys [][]byte) *Filter {
	t.Helper()
	var c FilterCollector
	for _, k := range keys {
		p := kv.MakePrefix(k)
		c.Add(&p)
	}
	f, err := c.Build(len(keys))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFilterFalsePositiveRate bounds the share of absent prefixes a
// filter lets through at 2 %, for 100 K hashed keys and 100 K ordered
// ones, probed with 100 K absent keys of the same shape. No added prefix
// may test negative.
func TestFilterFalsePositiveRate(t *testing.T) {
	const n = 100_000
	for _, c := range []struct {
		name string
		key  func(i uint64) []byte
	}{
		{"hashed", benchKey},
		{"ordered", orderedKey},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = c.key(uint64(2 * i)) // the odd ones are absent
			}
			f := filterOf(t, keys)
			for _, k := range keys {
				if p := kv.MakePrefix(k); !f.MayContain(&p) {
					t.Fatalf("added prefix %x tests negative", p)
				}
			}
			fp := 0
			for i := 0; i < n; i++ {
				if p := kv.MakePrefix(c.key(uint64(2*i + 1))); f.MayContain(&p) {
					fp++
				}
			}
			rate := float64(fp) / n
			t.Logf("%d keys: false-positive rate %.3f %%", n, 100*rate)
			if rate > 0.02 {
				t.Fatalf("false-positive rate %.3f %% exceeds 2 %%", 100*rate)
			}
		})
	}
}

// TestFilterIgnoresOrderAndCountsEntries: the bits depend on the
// multiset of prefixes alone, a nil filter may contain everything, and
// a count that is not the collected one is refused.
func TestFilterIgnoresOrderAndCountsEntries(t *testing.T) {
	keys := sortedKeys(5000, "k%06d")
	shuffled := append([][]byte(nil), keys...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if !filterOf(t, keys).Equal(filterOf(t, shuffled)) {
		t.Fatal("the same prefixes in another order built another filter")
	}
	if filterOf(t, keys).Equal(filterOf(t, keys[1:])) {
		t.Fatal("different prefix sets built equal filters")
	}
	var nilFilter *Filter
	if p := kv.MakePrefix([]byte("anything")); !nilFilter.MayContain(&p) {
		t.Fatal("a nil filter ruled a prefix out")
	}
	var c FilterCollector
	p := kv.MakePrefix(keys[0])
	c.Add(&p)
	if _, err := c.Build(2); err == nil {
		t.Fatal("Build accepted a count it did not collect")
	}
	if f, err := (&FilterCollector{}).Build(0); f != nil || err != nil {
		t.Fatalf("an empty level built %v, %v; want no filter", f, err)
	}
}

// FuzzLevelFilter: for any multiset of prefixes, no added prefix tests
// negative, and the filter a Builder builds over a tree of them is the
// one the Send-Index rewrite of the tree's shipped segments builds, and
// the one a collector fed the prefixes in any order builds. Input bytes
// are cut into 12-byte prefixes; a leading byte k repeats every prefix
// k%4 more times under distinct full keys, so leaves hold prefix ties.
func FuzzLevelFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00user00000001user00000002"))
	f.Add([]byte("\x03aaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add(append([]byte{1}, make([]byte, 12*40)...))
	seed := []byte{2}
	for i := uint64(0); i < 300; i++ {
		seed = append(seed, benchKey(i)[:kv.PrefixSize]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		repeat := 1 + int(data[0]%4)
		data = data[1:]
		var keys [][]byte
		for ; len(data) >= kv.PrefixSize; data = data[kv.PrefixSize:] {
			for r := 0; r < repeat; r++ {
				keys = append(keys, fmt.Appendf(append([]byte(nil), data[:kv.PrefixSize]...), "%02d", r))
			}
		}
		sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
		uniq := keys[:0]
		for i, k := range keys {
			if i == 0 || kv.Compare(k, keys[i-1]) != 0 {
				uniq = append(uniq, k)
			}
		}
		keys = uniq

		const nodeSize = 256
		primary := newDev(t, 4096)
		var shipped [][]byte
		_, _, built := buildTree(t, primary, nodeSize, keys, func(es EmittedSegment) error {
			shipped = append(shipped, append([]byte(nil), es.Data...))
			return nil
		})
		if built.NumKeys != len(keys) {
			t.Fatalf("built %d keys of %d", built.NumKeys, len(keys))
		}
		for _, k := range keys {
			if p := kv.MakePrefix(k); !built.Filter.MayContain(&p) {
				t.Fatalf("added prefix %x tests negative", p)
			}
		}

		backup := newDev(t, 4096)
		im := newLazyMap(backup)
		lm := &shiftMap{delta: 7}
		var rewrite FilterCollector
		for _, data := range shipped {
			if _, err := RewriteLevelSegment(data, nodeSize, backup.Geometry(), im.mapper(), lm.mapper(), &rewrite); err != nil {
				t.Fatal(err)
			}
		}
		got, err := rewrite.Build(built.NumKeys)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(built.Filter) {
			t.Fatal("the rewrite built another filter than the builder")
		}
		rand.New(rand.NewSource(int64(len(keys)))).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		if len(keys) > 0 && !filterOf(t, keys).Equal(built.Filter) {
			t.Fatal("a collector fed the prefixes out of order built another filter")
		}
	})
}

// TestRewriteLevelSegmentCollectsEveryLeafEntry: over a tree with
// tombstones and prefix ties, spread over several segments, the rewrite
// hashes exactly the builder's entries, and RewriteSegment, which
// collects nothing, rewrites the same bytes.
func TestRewriteLevelSegmentCollectsEveryLeafEntry(t *testing.T) {
	const nodeSize = 256
	keys := tieHeavyKeys()
	images := builtSegments(t, nodeSize, keys, 3)
	geo := newDev(t, 4096).Geometry()
	ident := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
	var c FilterCollector
	for _, img := range images {
		a := append([]byte(nil), img...)
		b := append([]byte(nil), img...)
		n1, err1 := RewriteLevelSegment(a, nodeSize, geo, ident, ident, &c)
		n2, err2 := RewriteSegment(b, nodeSize, geo, ident, ident)
		if err1 != nil || err2 != nil || n1 != n2 || string(a) != string(b) {
			t.Fatalf("RewriteLevelSegment (%d, %v) and RewriteSegment (%d, %v) differ", n1, err1, n2, err2)
		}
	}
	if c.Len() != len(keys) {
		t.Fatalf("the rewrite collected %d entries of %d", c.Len(), len(keys))
	}
	f, err := c.Build(len(keys))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(filterOf(t, keys)) {
		t.Fatal("the rewrite's filter is not the filter of the keys")
	}
}

// filterBenchKeys is the rungs' level: 256 K hashed keys, whose filter
// (320 KB) outgrows a core's L1 as a device level's does. It is a power
// of two, so the rungs index it with a mask, not a division.
const filterBenchKeys = 256 << 10

func filterBenchPrefixes() []kv.Prefix {
	ps := make([]kv.Prefix, filterBenchKeys)
	for i := range ps {
		ps[i] = kv.MakePrefix(benchKey(uint64(i)))
	}
	return ps
}

// BenchmarkFilterAdd is one leaf entry hashed into a collector: the
// per-entry cost of building a filter (FilterPerKey's add side).
func BenchmarkFilterAdd(b *testing.B) {
	ps := filterBenchPrefixes()
	var c FilterCollector
	for i := range ps {
		c.Add(&ps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (filterBenchKeys - 1)
		if j == 0 {
			c.Reset()
		}
		c.Add(&ps[j])
	}
}

// BenchmarkFilterBuild is a whole level's filter built from its
// collected hashes, per entry (the other half of the add side).
func BenchmarkFilterBuild(b *testing.B) {
	ps := filterBenchPrefixes()
	var c FilterCollector
	for i := range ps {
		c.Add(&ps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Build(len(ps)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ps)), "ns/key")
}

// BenchmarkFilterProbe is a get's probe of a level's filter, half for
// prefixes the level holds and half for ones it does not (FilterPerKey's
// probe side). The prefixes are hashed keys read in order, so the probes
// land in the filter at random while the prefixes stream from memory.
func BenchmarkFilterProbe(b *testing.B) {
	ps := filterBenchPrefixes()
	var c FilterCollector
	for i := 0; i < len(ps); i += 2 {
		c.Add(&ps[i])
	}
	f, err := c.Build(c.Len())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if f.MayContain(&ps[i&(filterBenchKeys-1)]) {
			hits++
		}
	}
	if b.N >= len(ps) && hits < b.N/2 {
		b.Fatalf("%d of %d probes hit; half the prefixes were added", hits, b.N)
	}
}

// BenchmarkRewriteLevelSegment is the Send-Index rewrite of a level of
// 64 K benchmark keys in 4 KB nodes, with the filter collected (filter)
// and without (plain), per leaf entry: the difference is what collecting
// a prefix adds to the pass that already reads it.
func BenchmarkRewriteLevelSegment(b *testing.B) {
	const n, nodeSize = 1 << 16, 4096
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(uint64(i))
	}
	sort.Slice(keys, func(i, j int) bool { return kv.Compare(keys[i], keys[j]) < 0 })
	dev := newDev(b, 256<<10)
	var images [][]byte
	buildTree(b, dev, nodeSize, keys, func(es EmittedSegment) error {
		images = append(images, es.Data)
		return nil
	})
	geo := dev.Geometry()
	ident := func(s storage.SegmentID) (storage.SegmentID, error) { return s, nil }
	scratch := make([]byte, len(images[0]))
	for _, c := range []struct {
		name   string
		filter *FilterCollector
	}{{"plain", nil}, {"filter", new(FilterCollector)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.filter != nil {
					c.filter.Reset()
				}
				for _, img := range images {
					copy(scratch, img)
					if _, err := RewriteLevelSegment(scratch[:len(img)], nodeSize, geo, ident, ident, c.filter); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
		})
	}
}
