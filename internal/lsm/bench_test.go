package lsm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

func benchDB(b *testing.B, l0 int) *DB {
	b.Helper()
	dev, err := storage.NewMemDevice(256<<10, 0)
	if err != nil {
		b.Fatal(err)
	}
	db, err := New(Options{
		Device:       dev,
		NodeSize:     4096,
		GrowthFactor: 4,
		L0MaxKeys:    l0,
		MaxLevels:    7,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		db.Close()
		dev.Close()
	})
	return db
}

// BenchmarkEnginePut measures the primary write path (log append + L0
// insert + background compactions).
func BenchmarkEnginePut(b *testing.B) {
	for _, valSize := range []int{9, 99, 999} { // the S/M/L value sizes
		b.Run(fmt.Sprintf("val%d", valSize), func(b *testing.B) {
			db := benchDB(b, 8192)
			val := make([]byte, valSize)
			b.ReportAllocs() // two of them are the key this loop formats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put([]byte(fmt.Sprintf("user%012d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineGet measures point lookups against a compacted store.
func BenchmarkEngineGet(b *testing.B) {
	db := benchDB(b, 4096)
	const n = 60000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%012d", i)), []byte("benchmark-value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, found, err := db.Get([]byte(fmt.Sprintf("user%012d", i%n)))
		if err != nil || !found {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGetHashed measures point lookups of ycsb-shaped keys
// (an 8-byte hash first, so every key has a prefix of its own) over two
// device levels: 40 K keys in the deeper one and 12 K in L1, read in a
// scattered order. A get of an L2 key walks L1 too unless L1's filter
// rules its prefix out.
func BenchmarkEngineGetHashed(b *testing.B) {
	db := benchDB(b, 4096)
	const n, deep = 52000, 40000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = hashedKey(i)
		if err := db.Put(keys[i], []byte("benchmark-value")); err != nil {
			b.Fatal(err)
		}
		if i == deep-1 {
			if err := db.CompactAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if lv := db.Levels(); lv[0].NumKeys != n-deep {
		b.Fatalf("L1 holds %d keys, want %d", lv[0].NumKeys, n-deep)
	}
	var value []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var found bool
		var err error
		value, found, err = db.GetAppend(value[:0], keys[i*7919%n])
		if err != nil || !found {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScan measures 16-entry range scans.
func BenchmarkEngineScan(b *testing.B) {
	db := benchDB(b, 4096)
	const n = 30000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%012d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ScanN([]byte(fmt.Sprintf("user%012d", (i*977)%n)), 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan is the scan of scan_short — ScanN(start, 16) — without
// ScanN's copies (ScanLimit with a 16-pair limit, a pair looked at and
// dropped), over two levels of 224 K keys in random order with 256-byte
// values: a 64 MiB value log, larger than a core's private caches (a
// 4 MiB L2 where it was sized), so a record's first touch misses them.
// Its starts are scattered, its index nodes cached. It reports the
// scan's time and allocations.
func BenchmarkScan(b *testing.B) {
	const keys, valLen = 224 << 10, 256
	dev, err := storage.NewMemDevice(4<<20, 0)
	if err != nil {
		b.Fatal(err)
	}
	db, err := New(Options{Device: dev, NodeSize: 4096, GrowthFactor: 4, L0MaxKeys: 32 << 10, MaxLevels: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		db.Close()
		dev.Close()
	})
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	val := make([]byte, valLen)
	for j, i := range rand.New(rand.NewSource(1)).Perm(keys) {
		if err := db.Put(key(i), val); err != nil {
			b.Fatal(err)
		}
		if j == keys*5/7-1 || j == keys-1 {
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if lv := db.Levels(); len(lv) != 2 || lv[0].NumKeys == 0 || lv[1].NumKeys == 0 {
		b.Fatalf("levels %+v, want two populated", lv)
	}
	if _, err := db.Log().Seal(); err != nil {
		b.Fatal(err)
	}
	starts := make([][]byte, 4096)
	for i := range starts {
		starts[i] = key(i * 7919 % (keys - 16))
	}
	lim := Limit{Pairs: 16, Bytes: math.MaxInt}
	n := 0
	fn := func(kv.Pair) bool { n++; return true }
	for _, start := range starts { // the index nodes on the way are cached from here on
		if err := db.ScanLimit(start, lim, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.ScanLimit(starts[i%len(starts)], lim, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n != 16*(b.N+len(starts)) {
		b.Fatalf("%d pairs in %d scans", n, b.N+len(starts))
	}
}

// BenchmarkCompaction isolates one L0→L1 merge of 8K keys.
func BenchmarkCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := func() *DB {
			dev, _ := storage.NewMemDevice(256<<10, 0)
			db, _ := New(Options{Device: dev, NodeSize: 4096, GrowthFactor: 4, L0MaxKeys: 1 << 20, MaxLevels: 4, Seed: 1})
			return db
		}()
		for j := 0; j < 8192; j++ {
			if err := db.Put([]byte(fmt.Sprintf("user%012d", j)), []byte("compaction-bench")); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
	}
}

// BenchmarkCompactionPipeline isolates one L0 → L1 job — its merge and
// build, with its segments shipping beside them: 64 K entries in L0 over
// 64 K in L1, interleaved, so the job merges 128 K. Keys are twelve bytes, one leaf prefix each,
// so no comparison reads a key. It reports the job's time and heap
// allocations per merged entry.
func BenchmarkCompactionPipeline(b *testing.B) {
	const half = 64 << 10
	put := func(db *DB, from int) {
		for j := from; j < 2*half; j += 2 {
			if err := db.Put([]byte(fmt.Sprintf("k%011d", j)), []byte("compaction-bench")); err != nil {
				b.Fatal(err)
			}
		}
	}
	var (
		elapsed time.Duration
		mallocs uint64
		ms      runtime.MemStats
	)
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		dev, err := storage.NewMemDevice(256<<10, 0)
		if err != nil {
			b.Fatal(err)
		}
		db, err := New(Options{Device: dev, NodeSize: 4096, GrowthFactor: 4, L0MaxKeys: 1 << 20, MaxLevels: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		put(db, 0) // L1: the even keys
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		put(db, 1) // L0: the odd keys
		ref, src, dst := l0Job(b, db)

		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		b.StartTimer()
		if _, err := db.pipeline(ref, src, dst); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before

		db.Close()
		dev.Close()
	}
	entries := float64(b.N) * 2 * half
	b.ReportMetric(float64(elapsed.Nanoseconds())/entries, "ns/entry")
	b.ReportMetric(float64(mallocs)/entries, "allocs/entry")
}
