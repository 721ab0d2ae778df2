package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/metrics"
	"tebis/internal/storage"
)

// hashedKey is ycsb.Key's shape: an 8-byte hash of i first, then i in
// 16 digits, so every key has a prefix of its own.
func hashedKey(i int) []byte {
	h := fnv.New64a()
	fmt.Fprint(h, i)
	return fmt.Appendf(binary.BigEndian.AppendUint64(nil, h.Sum64()), "%016d", i)
}

// sharedKey is lsm.BenchmarkEngineGet's shape: every key below 10⁸
// starts with the same twelve bytes, "user00000000".
func sharedKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// filteredDB is twoLevelDB over keyOf: 640 keys in L2 and 256 in L1,
// nothing in L0. Of the keys written to L1, every third deletes one of
// the first 256 keys of L2 instead, so L1 holds tombstones that shadow
// L2's values; filterValue(i) is key i's value. L1 has a filter; L2,
// built as the deepest level holding keys, has none.
func filteredDB(t *testing.T, opt Options, keyOf func(int) []byte) *DB {
	t.Helper()
	opt.L0MaxKeys = 128
	opt.MaxLevels = 3
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 640; i++ {
		if err := db.Put(keyOf(i), filterValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 640; i < 896; i++ {
		var err error
		if i%3 == 0 {
			err = db.Delete(keyOf(i - 640))
		} else {
			err = db.Put(keyOf(i), filterValue(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if lv := db.Levels(); lv[0].NumKeys != 256 || lv[1].NumKeys != 640 || lv[0].Filter == nil || lv[1].Filter != nil {
		t.Fatalf("levels hold %d and %d keys (filters %v, %v), want 256 with a filter and 640 without",
			lv[0].NumKeys, lv[1].NumKeys, lv[0].Filter != nil, lv[1].Filter != nil)
	}
	return db
}

func filterValue(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

// deletedIntoL1 reports whether filteredDB deleted key i, a key of L2,
// with a tombstone in L1.
func deletedIntoL1(i int) bool { return i < 256 && (i+640)%3 == 0 }

// filteredAnswer is what a filtered engine built by filteredDB answers
// for key i: keys past 896 were never written, the first 256 lose every
// third one to a tombstone in L1, and of the last 256 every third is
// the tombstone, not a key.
func filteredAnswer(i int) ([]byte, bool) {
	switch {
	case i >= 896:
		return nil, false
	case deletedIntoL1(i):
		return nil, false
	case i >= 640 && i%3 == 0:
		return nil, false
	}
	return filterValue(i), true
}

// checkAnswers gets keys 0..1023 from db and compares each with
// filteredAnswer: a wrong answer is a filter's false negative or a
// tombstone it let through.
func checkAnswers(t *testing.T, name string, db *DB, keyOf func(int) []byte) {
	t.Helper()
	for i := 0; i < 1024; i++ {
		got, found, err := db.Get(keyOf(i))
		want, wantFound := filteredAnswer(i)
		if err != nil || found != wantFound || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(key %d) = %q, %v, %v; want %q, %v", name, i, got, found, err, want, wantFound)
		}
	}
}

// walksPerGet gets every key of filteredDB once and returns the device
// trees the gets walked, per get, and the lookup counts.
func walksPerGet(t *testing.T, db *DB, keyOf func(int) []byte) (float64, metrics.LookupSnapshot) {
	t.Helper()
	before := db.LookupStats()
	checkAnswers(t, "walks", db, keyOf)
	after := db.LookupStats()
	d := metrics.LookupSnapshot{
		Lookups:        after.Lookups - before.Lookups,
		Walked:         after.Walked - before.Walked,
		Skipped:        after.Skipped - before.Skipped,
		FalsePositives: after.FalsePositives - before.FalsePositives,
	}
	return float64(d.Walked) / float64(d.Lookups), d
}

// noFilterWalks is what every get of checkAnswers walks without
// filters: L1 alone for the 256 keys L1 holds, tombstones included, and
// L1 then L2 for every other key, the 128 never written included.
func noFilterWalks() float64 {
	inL1 := 0
	for i := 0; i < 640; i++ {
		if deletedIntoL1(i) {
			inL1++
		}
	}
	for i := 640; i < 896; i++ {
		if i%3 != 0 {
			inL1++
		}
	}
	return float64(inL1+2*(1024-inL1)) / 1024
}

// TestGetWalksOnlyTheLevelThatHoldsTheKey: on a two-level engine whose
// keys each have a prefix of their own, a get walks one device tree —
// the one holding its key — plus the filter's rare false positive: at
// most 1.05 trees a get, where walking every level costs 1.7. Where
// every key shares its prefix the filter cannot help, and a get walks
// exactly the trees it would walk without one.
func TestGetWalksOnlyTheLevelThatHoldsTheKey(t *testing.T) {
	t.Run("hashed", func(t *testing.T) {
		opt, _ := testOptions(t)
		db := filteredDB(t, opt, hashedKey)
		walks, d := walksPerGet(t, db, hashedKey)
		t.Logf("%.3f trees walked a get (%.3f without filters); %+v", walks, noFilterWalks(), d)
		// A get of a key in L1 walks L1, bar false positives; any other
		// get walks L2, which has no filter.
		if walks > 1.05 {
			t.Fatalf("gets walked %.3f device trees each, want <= 1.05", walks)
		}
		if d.Skipped == 0 || d.FalsePositives > d.Walked {
			t.Fatalf("counts %+v: no level skipped, or more false positives than walks", d)
		}
	})
	t.Run("shared-prefix", func(t *testing.T) {
		opt, _ := testOptions(t)
		db := filteredDB(t, opt, sharedKey)
		walks, d := walksPerGet(t, db, sharedKey)
		t.Logf("%.3f trees walked a get; %+v", walks, d)
		if walks != noFilterWalks() || d.Skipped != 0 || d.FalsePositives != 0 {
			t.Fatalf("gets walked %.4f trees each (skipped %d, false positives %d); want %.4f as without filters, nothing skipped",
				walks, d.Skipped, d.FalsePositives, noFilterWalks())
		}
	})
}

// TestDeepestLevelBuildsNoFilter: a job builds its level's filter
// while a deeper level holds keys, and not into the deepest level
// holding keys.
func TestDeepestLevelBuildsNoFilter(t *testing.T) {
	opt, _ := testOptions(t)
	opt.MaxLevels = 4
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.mu.Lock()
	defer db.mu.Unlock()
	want := func(what string, filters ...bool) {
		t.Helper()
		for dst, w := range filters {
			if got := db.filterLocked(dst + 1); got != w {
				t.Fatalf("%s: a job into L%d builds a filter: %v, want %v", what, dst+1, got, w)
			}
		}
	}
	want("empty engine", false, false, false)
	db.levels[3] = &level{built: btree.Built{NumKeys: 1}}
	want("keys in L3", true, true, false)
	db.levels[3] = nil
}

// TestTombstoneInL1ShadowsL2WithFilters: a tombstone is a leaf entry
// and is added to its level's filter, so a get of a key deleted into L1
// stops there and never reaches the value L2 still holds.
func TestTombstoneInL1ShadowsL2WithFilters(t *testing.T) {
	opt, _ := testOptions(t)
	db := filteredDB(t, opt, hashedKey)
	for i := 0; i < 640; i++ {
		if !deletedIntoL1(i) {
			continue
		}
		before := db.LookupStats()
		if v, found, err := db.Get(hashedKey(i)); err != nil || found {
			t.Fatalf("Get of key %d, deleted into L1: %q, %v, %v; want not found", i, v, found, err)
		}
		if after := db.LookupStats(); after.Walked-before.Walked != 1 {
			t.Fatalf("Get of key %d walked %d trees, want 1: the tombstone's", i, after.Walked-before.Walked)
		}
	}
}

// TestFilterlessEnginesAnswerAsTheFilteredOne: an engine over the same
// levels without their filters (NewFromState with nil filters, the
// state of a level nobody filtered) and an engine lsm.Open recovers from
// the device answer every key as the filtered engine does, and so does
// the recovered engine once its own compactions have built a filter.
func TestFilterlessEnginesAnswerAsTheFilteredOne(t *testing.T) {
	opt, mem := testOptions(t)
	opt.Device = storage.AsVerifying(mem)
	db := filteredDB(t, opt, hashedKey)
	checkAnswers(t, "filtered", db, hashedKey)

	states := db.Levels()
	for i := range states {
		states[i].Filter = nil
	}
	bare, err := NewFromState(opt, db.Log(), states, db.Watermark())
	if err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, "nil filters", bare, hashedKey)
	if d := bare.LookupStats(); d.Skipped != 0 || d.Walked == 0 {
		t.Fatalf("an engine without filters skipped %d levels in %d walks", d.Skipped, d.Walked)
	}

	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Open(Options{Device: opt.Device, NodeSize: opt.NodeSize, L0MaxKeys: 128, MaxLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	checkAnswers(t, "recovered", rec, hashedKey)
	// Its replay compacts every key into L2, the one level, which gets
	// no filter; writing L1's keys again puts a filtered L1 over it.
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 640; i < 896; i++ {
		if i%3 != 0 {
			if err := rec.Put(hashedKey(i), filterValue(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if lv := rec.Levels(); lv[0].NumKeys == 0 || lv[0].Filter == nil {
		t.Fatalf("the recovered engine's L1 holds %d keys, filter %v; want keys and a filter", lv[0].NumKeys, lv[0].Filter != nil)
	}
	checkAnswers(t, "recovered and compacted", rec, hashedKey)
}

// TestGCLivenessChecksThroughFilters: online GC decides whether a
// victim record is live through the same lookup as a get, filters and
// all. The even keys keep their first record in the deepest level; L1
// above it holds the odd keys' last ones, and its filter rules out even
// keys, whose liveness checks skip L1. A pass must still move every
// live record: none is taken for dead.
func TestGCLivenessChecksThroughFilters(t *testing.T) {
	db := gcTestDB(t)
	const keys = 240
	for r := 0; r < 4; r++ {
		for i := 0; i < keys; i++ {
			if r > 0 && i%2 == 0 {
				continue // the even keys keep their first record
			}
			if err := db.Put(hashedKey(i), []byte(fmt.Sprintf("v%d-%d-0123456789abcdef", r, i))); err != nil {
				t.Fatal(err)
			}
		}
		compact := db.CompactAll // into the deepest level
		if r == 3 {
			compact = db.Flush // into L1, over it
		}
		if err := compact(); err != nil {
			t.Fatal(err)
		}
	}
	l1 := db.Levels()[0]
	skips := 0
	for i := 0; i < keys; i += 2 {
		if p := kv.MakePrefix(hashedKey(i)); !l1.Filter.MayContain(&p) {
			skips++
		}
	}
	if l1.NumKeys != keys/2 || skips == 0 {
		t.Fatalf("L1 holds %d keys and its filter rules out %d even keys; want %d and some", l1.NumKeys, skips, keys/2)
	}
	res, err := db.GCOnce(GCPolicy{MinDeadRatio: 0.3, MaxSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsMoved == 0 {
		t.Fatal("GC moved no record")
	}
	for i := 0; i < keys; i++ {
		want := fmt.Sprintf("v%d-%d-0123456789abcdef", 3, i)
		if i%2 == 0 {
			want = fmt.Sprintf("v%d-%d-0123456789abcdef", 0, i)
		}
		if v, found, err := db.Get(hashedKey(i)); err != nil || !found || string(v) != want {
			t.Fatalf("Get(key %d) after GC = %q, %v, %v; want %q", i, v, found, err, want)
		}
	}
}
