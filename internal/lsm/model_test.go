package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
	"tebis/internal/metrics"
	"tebis/internal/storage"
)

// TestModelEquivalence drives the engine with random mixed operation
// sequences and checks every observable behaviour — point gets, full
// scans, and post-flush state — against an in-memory reference map.
//
// The tinyNodeCache variant runs the same sequences on a verifying
// device of 32 segments whose node cache holds four nodes, with a second
// goroutine reading beside the compactions: each build's fills and the
// reader's demand misses compete for those four ways, freed index
// segments are re-allocated and cached nodes evicted within every run,
// so a node surviving its segment's incarnation, or one filled from an
// image other than the one its segment holds, shows as a model
// mismatch, a malformed value or a corrupt-node error.
func TestModelEquivalence(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		testModelEquivalence(t, false, plainKey, func() Options {
			opt, _ := testOptions(t)
			return opt
		})
	})
	// The same sequences over keys that collide on their leaf prefixes,
	// through levels small enough that versions of one key sit in three
	// of them at once: every merge and scan comparison is a tie the
	// full keys must settle.
	t.Run("prefixTies", func(t *testing.T) {
		testModelEquivalence(t, true, tieKey, func() Options {
			opt, _ := testOptions(t)
			opt.L0MaxKeys = 24
			opt.GrowthFactor = 2
			return opt
		})
	})
	t.Run("tinyNodeCache", func(t *testing.T) {
		var caches []*storage.NodeCache
		testModelEquivalence(t, true, plainKey, func() Options {
			mem, err := storage.NewMemDevice(16<<10, 32)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mem.Close() })
			dev := storage.AsVerifying(mem)
			dev.NodeCache().Resize(4)
			caches = append(caches, dev.NodeCache())
			opt, _ := testOptions(t)
			opt.Device = dev
			return opt
		})
		total := map[string]float64{}
		for _, c := range caches {
			for _, f := range c.Collect() {
				total[f.Name] += f.Samples[0].Value
			}
		}
		if total["tebis_node_cache_evictions_total"] == 0 || total["tebis_node_cache_invalidations_total"] == 0 {
			t.Fatalf("the variant exercises no eviction or no invalidation: %v", total)
		}
	})
}

// plainKey is the model's default key population: 512 keys shorter than
// the leaf prefix, so no two prefixes are equal.
func plainKey(i int) string { return fmt.Sprintf("key%05d", i%512) }

// tieKey is a population of 512 keys engineered to collide on the first
// kv.PrefixSize bytes: three long runs that share a twelve-byte prefix
// each, and short keys that differ only in trailing zero bytes, which
// the prefix's zero padding hides ("ab" < "ab\x00", equal prefixes).
func tieKey(i int) string {
	i %= 512
	if i%16 == 0 {
		return "ab" + strings.Repeat("\x00", i/16%6)
	}
	return fmt.Sprintf("sameprefix%02d-%03d", i%3, i)
}

// testModelEquivalence runs the model check over engines opened with
// open's options and keys drawn from keyOf; with reader set, a second
// goroutine gets and scans beside each sequence.
func testModelEquivalence(t *testing.T, reader bool, keyOf func(int) string, open func() Options) {
	type op struct {
		Kind  uint8 // 0..5: put, overwrite-put, delete, get, flush, scan
		Key   uint16
		Value uint8
	}
	f := func(ops []op, seed int64) bool {
		opt := open()
		opt.Seed = seed
		db, err := New(opt)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		defer db.Close()
		ref := map[string]string{}

		if reader {
			stop := make(chan struct{})
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				rnd := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					key := keyOf(rnd.Intn(512))
					got, found, err := db.Get([]byte(key))
					if err != nil || (found && !bytes.HasPrefix(got, []byte("value-"))) {
						t.Errorf("concurrent Get(%s) = %q,%v,%v", key, got, found, err)
						return
					}
					pairs, err := db.ScanN([]byte(key), 8)
					if err != nil || !sort.SliceIsSorted(pairs, func(i, j int) bool {
						return kv.Compare(pairs[i].Key, pairs[j].Key) < 0
					}) {
						t.Errorf("concurrent ScanN(%s) = %v, %v", key, pairs, err)
						return
					}
				}
			}()
			defer func() {
				close(stop)
				<-stopped
			}()
		}

		for _, o := range ops {
			key := keyOf(int(o.Key))
			val := fmt.Sprintf("value-%d", o.Value)
			switch o.Kind % 6 {
			case 0, 1:
				if err := db.Put([]byte(key), []byte(val)); err != nil {
					t.Logf("Put: %v", err)
					return false
				}
				ref[key] = val
			case 2:
				if err := db.Delete([]byte(key)); err != nil {
					t.Logf("Delete: %v", err)
					return false
				}
				delete(ref, key)
			case 3:
				got, found, err := db.Get([]byte(key))
				if err != nil {
					t.Logf("Get: %v", err)
					return false
				}
				want, ok := ref[key]
				if found != ok || (ok && string(got) != want) {
					t.Logf("Get(%s) = %q,%v want %q,%v", key, got, found, want, ok)
					return false
				}
			case 4:
				if err := db.Flush(); err != nil {
					t.Logf("Flush: %v", err)
					return false
				}
			case 5:
				var gotKeys []string
				err := db.Scan(nil, func(p kv.Pair) bool {
					gotKeys = append(gotKeys, string(p.Key))
					return true
				})
				if err != nil {
					t.Logf("Scan: %v", err)
					return false
				}
				if len(gotKeys) != len(ref) {
					t.Logf("Scan saw %d keys, ref has %d", len(gotKeys), len(ref))
					return false
				}
			}
		}

		// Final audit: every reference key readable, scans sorted and
		// complete.
		for k, v := range ref {
			got, found, err := db.Get([]byte(k))
			if err != nil || !found || string(got) != v {
				t.Logf("final Get(%s) = %q,%v,%v want %q", k, got, found, err, v)
				return false
			}
		}
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		if err := db.Scan(nil, func(p kv.Pair) bool {
			got = append(got, string(p.Key))
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			t.Logf("final scan %d vs %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 200 + r.Intn(600)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{Kind: uint8(r.Intn(250)), Key: uint16(r.Intn(1 << 16)), Value: uint8(r.Intn(250))}
			}
			args[0] = reflect.ValueOf(ops)
			args[1] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Scan with nil start must behave as scan-from-beginning.
func TestScanNilStart(t *testing.T) {
	db, _ := newTestDB(t)
	for i := 0; i < 50; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	first := ""
	if err := db.Scan(nil, func(p kv.Pair) bool {
		if n == 0 {
			first = string(p.Key)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 50 || first != "k000" {
		t.Fatalf("scan(nil) = %d keys, first %q", n, first)
	}
}

// TestModelRandomizedScanWindows compares windowed scans to the model.
func TestModelRandomizedScanWindows(t *testing.T) {
	db, _ := newTestDB(t)
	rnd := rand.New(rand.NewSource(41))
	ref := map[string]bool{}
	for i := 0; i < 2500; i++ {
		k := fmt.Sprintf("key%05d", rnd.Intn(4000))
		if rnd.Intn(10) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		} else {
			if err := db.Put([]byte(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
			ref[k] = true
		}
	}
	var sorted []string
	for k := range ref {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for trial := 0; trial < 30; trial++ {
		start := fmt.Sprintf("key%05d", rnd.Intn(4000))
		limit := 1 + rnd.Intn(20)
		pairs, err := db.ScanN([]byte(start), limit)
		if err != nil {
			t.Fatal(err)
		}
		// Reference window.
		i := sort.SearchStrings(sorted, start)
		wantN := len(sorted) - i
		if wantN > limit {
			wantN = limit
		}
		if len(pairs) != wantN {
			t.Fatalf("ScanN(%s,%d) = %d pairs, want %d", start, limit, len(pairs), wantN)
		}
		for j, p := range pairs {
			if !bytes.Equal(p.Key, []byte(sorted[i+j])) {
				t.Fatalf("ScanN window mismatch at %d: %q vs %q", j, p.Key, sorted[i+j])
			}
		}
	}
}

// TestPrefixTiesAcrossEveryLevel places versions of colliding keys
// (tieKey) in every source a scan merges — the active L0, a frozen
// table no job may drain, and three on-device levels — with updates
// and tombstones in each, and checks Scan before and after CompactAll
// against the model. Every comparison between two sources is a prefix
// tie, so the order and the shadowing rest on the lazily read keys.
func TestPrefixTiesAcrossEveryLevel(t *testing.T) {
	opt, _ := testOptions(t)
	opt.L0MaxKeys = 24
	opt.GrowthFactor = 2
	opt.Cycles = &metrics.Cycles{}
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ref := map[string]string{}
	write := func(i, round int) {
		t.Helper()
		key := tieKey(i)
		if (i+round)%5 == 0 {
			if err := db.Delete([]byte(key)); err != nil {
				t.Fatal(err)
			}
			delete(ref, key)
			return
		}
		val := fmt.Sprintf("value-%d-%d", round, i)
		if err := db.Put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		ref[key] = val
	}
	check := func(when string) {
		t.Helper()
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		err := db.Scan(nil, func(p kv.Pair) bool {
			if i >= len(want) || string(p.Key) != want[i] || string(p.Value) != ref[want[i]] {
				t.Fatalf("%s: scan pair %d = %q:%q, want key %q", when, i, p.Key, p.Value, want[min(i, len(want)-1)])
			}
			i++
			return true
		})
		if err != nil || i != len(want) {
			t.Fatalf("%s: scan saw %d of %d keys, %v", when, i, len(want), err)
		}
		for _, start := range []string{"ab", "ab\x00\x00", "sameprefix00", "sameprefix01-100", "sameprefix02-511x"} {
			pairs, err := db.ScanN([]byte(start), 7)
			if err != nil {
				t.Fatal(err)
			}
			at := sort.SearchStrings(want, start)
			for j, p := range pairs {
				if string(p.Key) != want[at+j] {
					t.Fatalf("%s: ScanN(%q)[%d] = %q, want %q", when, start, j, p.Key, want[at+j])
				}
			}
			if len(pairs) != min(7, len(want)-at) {
				t.Fatalf("%s: ScanN(%q) = %d pairs", when, start, len(pairs))
			}
		}
	}

	// The whole population, then two rounds over parts of it: the
	// cascade leaves the rounds in different levels.
	for i := 0; i < 512; i++ {
		write(i, 0)
	}
	for round := 1; round <= 2; round++ {
		for i := round; i < 512; i += 3 * round {
			write(i, round)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	populated := 0
	for _, lv := range db.Levels() {
		if lv.NumKeys > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("%d populated levels, want at least 2", populated)
	}

	// At a job boundary one more table freezes and stays frozen — no
	// job may drain it — and the writes after it stay in the active L0.
	// They fill less than two tables, so none stalls behind the frozen
	// one.
	err = db.AtJobBoundary(func() error {
		for i := 3; i < 512; i += 13 {
			write(i, 3)
		}
		if frozen, _ := db.QueueDepth(); frozen == 0 || db.L0Len() == 0 {
			t.Fatalf("%d frozen tables and %d keys in L0, want both non-empty", frozen, db.L0Len())
		}

		// A scan is foreground work: the keys its ties read are charged
		// to it, not to the compactor that shares its cursor.
		before := opt.Cycles.Snapshot()
		check("L0 + frozen + levels")
		after := opt.Cycles.Snapshot()
		if after[metrics.CompCompaction] != before[metrics.CompCompaction] {
			t.Fatalf("scans over a quiescent engine charged %d cycles to compaction",
				after[metrics.CompCompaction]-before[metrics.CompCompaction])
		}
		if after[metrics.CompOther] == before[metrics.CompOther] {
			t.Fatal("the scans charged nothing to their own component")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("after CompactAll")
	for k, v := range ref {
		if got, found, err := db.Get([]byte(k)); err != nil || !found || string(got) != v {
			t.Fatalf("Get(%q) after CompactAll = %q, %v, %v, want %q", k, got, found, err, v)
		}
	}
}
