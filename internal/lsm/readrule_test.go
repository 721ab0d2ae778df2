package lsm

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// The read rule (DESIGN.md "Data path"), held as counts on a MemDevice:
// a merge or a scan orders entries by their leaf prefixes and goes to
// the value log for a full key only on a tie, for a leaf's pivot, and
// for the record it returns.

const (
	ruleKeyLen = 12 // "user%08d": the whole key is its prefix
	ruleValLen = 20
)

func ruleKey(i int) []byte { return []byte(fmt.Sprintf("user%08d", i*7919%100003)) }

// countingDevice counts the vectored reads that reach its device.
type countingDevice struct {
	*storage.MemDevice
	readVs atomic.Int64
}

func (d *countingDevice) ReadV(offs []storage.Offset, bufs [][]byte) (int, error) {
	d.readVs.Add(1)
	return d.MemDevice.ReadV(offs, bufs)
}

// readVs returns the vectored reads db's device has made.
func readVs(db *DB) int64 { return db.opt.Device.(*countingDevice).readVs.Load() }

// twoLevelDB loads 896 keys with pairwise distinct prefixes, in an
// order that interleaves the levels, into an engine whose deepest level
// is L2: 640 keys end up in L2 and 256 in L1, L0 is empty, the log is
// sealed (a tail read would not count as device traffic) and nothing
// runs in the background. Its device counts vectored reads (readVs).
func twoLevelDB(t *testing.T) (*DB, *storage.MemDevice, *recordingListener) {
	t.Helper()
	opt, dev := testOptions(t)
	opt.Device = &countingDevice{MemDevice: dev}
	opt.L0MaxKeys = 128
	opt.MaxLevels = 3
	rec := &recordingListener{}
	opt.Listener = rec
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	value := bytes.Repeat([]byte("v"), ruleValLen)
	for i := 0; i < 896; i++ {
		if err := db.Put(ruleKey(i), value); err != nil {
			t.Fatal(err)
		}
		if i == 639 || i == 895 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if lv := db.Levels(); lv[0].NumKeys != 256 || lv[1].NumKeys != 640 {
		t.Fatalf("levels hold %d and %d keys, want 256 and 640", lv[0].NumKeys, lv[1].NumKeys)
	}
	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	return db, dev, rec
}

func TestMergeReadsOneKeyPerLeaf(t *testing.T) {
	db, dev, rec := twoLevelDB(t)
	nodes := 0
	for i := 1; i <= 2; i++ {
		it := new(btree.Iterator)
		it.First(db.levels[i].tree)
		for it.Valid() {
			it.Next()
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		nodes += it.NodesRead()
	}
	shipped := len(rec.segments)

	dev.ResetStats()
	if err := db.CompactAll(); err != nil { // one job: L1 into L2
		t.Fatal(err)
	}
	st := dev.Stats()

	leaves := 0
	for _, es := range rec.segments[shipped:] {
		for off := 0; off < len(es.Data); off += db.opt.NodeSize {
			if btree.IsLeaf(es.Data[off:]) {
				leaves++
			}
		}
	}
	if got := db.Levels()[1].NumKeys; got != 896 || leaves == 0 {
		t.Fatalf("merged level holds %d keys in %d leaves", got, leaves)
	}
	// What the merge read beyond the two trees' nodes are full keys: a
	// header and a key each.
	keyBytes := int(st.BytesRead) - nodes*db.opt.NodeSize
	keys := keyBytes / (8 + ruleKeyLen)
	t.Logf("merge of 896 entries read %d nodes and %d full keys for %d leaves", nodes, keys, leaves)
	if keyBytes < 0 || keys > leaves {
		t.Fatalf("merge read %d full keys (%d bytes past %d nodes) emitting %d leaves", keys, keyBytes, nodes, leaves)
	}
}

func TestScanReadsReturnedRecordsOnly(t *testing.T) {
	db, dev, _ := twoLevelDB(t)
	start := ruleKey(100)
	scan := func() {
		t.Helper()
		pairs, err := db.ScanN(start, 16)
		if err != nil || len(pairs) != 16 || !bytes.Equal(pairs[0].Key, start) {
			t.Fatalf("ScanN = %d pairs, %v", len(pairs), err)
		}
		for i := 1; i < len(pairs); i++ {
			if bytes.Compare(pairs[i-1].Key, pairs[i].Key) >= 0 || len(pairs[i].Value) != ruleValLen {
				t.Fatalf("pair %d: %q after %q, %d byte value", i, pairs[i].Key, pairs[i-1].Key, len(pairs[i].Value))
			}
		}
	}
	scan() // the index nodes on the way are cached from here on

	dev.ResetStats()
	vecs := readVs(db)
	scan()
	st := dev.Stats()

	// 16 records (a header and a body each), and one full key where the
	// seek met start's own prefix: in the one level that holds it. The
	// headers come in one vectored read and the bodies in another.
	record := vlog.EncodedLen(ruleKeyLen, ruleValLen)
	key := record - ruleValLen
	if st.ReadOps != 2*(16+1) || st.BytesRead != uint64(16*record+key) {
		t.Fatalf("ScanN(start, 16) made %d reads of %d bytes, want %d of %d", st.ReadOps, st.BytesRead, 2*(16+1), 16*record+key)
	}
	if n := readVs(db) - vecs; n != 2 {
		t.Fatalf("ScanN(start, 16) made %d vectored reads, want 2: its headers, then its bodies", n)
	}
}

// A scan its byte budget cuts short reads the headers of its batch and
// the bodies of the pairs it returns, and nothing more: not the body of
// the record that does not fit, nor any after it.
func TestScanCutByBudgetReadsWhatItReturns(t *testing.T) {
	db, dev, _ := twoLevelDB(t)
	start := ruleKey(100)
	want, err := db.ScanN(start, 16) // and the nodes on the way are cached
	if err != nil || len(want) != 16 {
		t.Fatalf("ScanN = %d pairs, %v", len(want), err)
	}
	const body = ruleKeyLen + ruleValLen
	key := vlog.EncodedLen(ruleKeyLen, ruleValLen) - ruleValLen
	hdr := key - ruleKeyLen
	for fits := 1; fits <= 16; fits += 5 {
		// Room for fits pairs and their overhead, and for all but a byte
		// of the next one.
		lim := Limit{Pairs: 16, Bytes: (fits+1)*(body+8) - 1, PairOverhead: 8}
		if fits == 16 {
			lim.Bytes = math.MaxInt
		}
		dev.ResetStats()
		var got []string
		err := db.ScanLimit(start, lim, func(p kv.Pair) bool {
			got = append(got, string(p.Key))
			return true
		})
		if err != nil || len(got) != fits {
			t.Fatalf("a budget for %d pairs returned %d, %v", fits, len(got), err)
		}
		for i, k := range got {
			if k != string(want[i].Key) {
				t.Fatalf("pair %d = %q, want %q", i, k, want[i].Key)
			}
		}
		st := dev.Stats()
		if wantBytes := 16*hdr + fits*body + key; st.BytesRead != uint64(wantBytes) || st.ReadOps != uint64(16+fits+2) {
			t.Fatalf("a scan cut after %d pairs made %d reads of %d bytes, want %d of %d: 16 headers, %d bodies and the seek's key",
				fits, st.ReadOps, st.BytesRead, 16+fits+2, wantBytes, fits)
		}
	}
}

// A limit of zero pairs returns none and reads nothing; ScanN and a
// zero Limit once returned the first pair before they looked at the
// count.
func TestScanOfZeroPairsReturnsNone(t *testing.T) {
	db, dev, _ := twoLevelDB(t)
	dev.ResetStats()
	pairs, err := db.ScanN(ruleKey(100), 0)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("ScanN(start, 0) = %d pairs, %v", len(pairs), err)
	}
	if err := db.ScanLimit(ruleKey(100), Limit{Bytes: math.MaxInt}, func(p kv.Pair) bool {
		t.Fatalf("a zero-pair scan handed over %q", p.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.ReadOps != 0 {
		t.Fatalf("zero-pair scans made %d reads", st.ReadOps)
	}
}

// A get reads the record it returns once: the header and key that
// settled the prefix tie in the level that holds it, then the value —
// not the header and key a second time.
func TestGetReadsTheRecordOnce(t *testing.T) {
	db, dev, _ := twoLevelDB(t)
	key := ruleKey(100)
	get := func() {
		t.Helper()
		if v, found, err := db.Get(key); err != nil || !found || len(v) != ruleValLen {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), found, err)
		}
	}
	get() // the index nodes on the way are cached from here on

	dev.ResetStats()
	get()
	st := dev.Stats()
	if record := vlog.EncodedLen(ruleKeyLen, ruleValLen); st.ReadOps != 3 || st.BytesRead != uint64(record) {
		t.Fatalf("a level-resident get made %d reads of %d bytes, want 3 of %d", st.ReadOps, st.BytesRead, record)
	}

	// A range of the value reads that range.
	dev.ResetStats()
	part, h, found, err := db.GetRange([]byte("held"), key, Range{From: 5, N: 7})
	if err != nil || !found || h.ValLen() != ruleValLen || string(part) != "heldvvvvvvv" {
		t.Fatalf("GetRange(5, 7) = %q of %d, %v, %v", part, h.ValLen(), found, err)
	}
	headerAndKey := vlog.EncodedLen(ruleKeyLen, ruleValLen) - ruleValLen
	if st := dev.Stats(); st.BytesRead != uint64(headerAndKey+7) {
		t.Fatalf("a 7-byte range of a level-resident value read %d bytes, want %d", st.BytesRead, headerAndKey+7)
	}

	// In L0 the memtable holds the key: the header, then the value.
	fresh := bytes.Repeat([]byte("w"), 33)
	if err := db.Put(key, fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Seal(); err != nil { // a tail read is not device traffic
		t.Fatal(err)
	}
	dev.ResetStats()
	if v, found, err := db.Get(key); err != nil || !found || !bytes.Equal(v, fresh) {
		t.Fatalf("Get after overwrite = %q, %v, %v", v, found, err)
	}
	headerAndValue := vlog.EncodedLen(len(key), len(fresh)) - len(key)
	if st := dev.Stats(); st.ReadOps != 2 || st.BytesRead != uint64(headerAndValue) {
		t.Fatalf("an L0-resident get made %d reads of %d bytes, want 2 of %d", st.ReadOps, st.BytesRead, headerAndValue)
	}
}

// The rest of a value read in parts comes from the record its first part
// came from (Range.Record). While the index still names that record the
// read costs what an unnamed one does; once the key is put over, the
// rest is still the old record's, at the cost of its header and key read
// to check that it is the key's; a record that is another key's, or no
// record at all, is not found — and no error.
func TestGetRangeOfANamedRecord(t *testing.T) {
	db, dev, _ := twoLevelDB(t)
	key := ruleKey(100)
	_, h, found, err := db.GetRange(nil, key, Range{N: math.MaxInt})
	if err != nil || !found {
		t.Fatalf("GetRange = %v, %v", found, err)
	}
	rec := h.Off()
	dev.ResetStats()
	if _, _, _, err := db.GetRange(nil, key, Range{From: 5, N: 7}); err != nil {
		t.Fatal(err)
	}
	unnamed := dev.Stats().BytesRead
	dev.ResetStats()
	part, h, found, err := db.GetRange(nil, key, Range{Record: rec, From: 5, N: 7})
	if err != nil || !found || h.Off() != rec || string(part) != "vvvvvvv" {
		t.Fatalf("the named record's range = %q at %#x, %v, %v", part, h.Off(), found, err)
	}
	if named := dev.Stats().BytesRead; named != unnamed {
		t.Fatalf("the newest record named read %d bytes, unnamed %d", named, unnamed)
	}

	// Put over: the named record still answers, with its own bytes.
	if err := db.Put(key, bytes.Repeat([]byte("w"), ruleValLen)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	part, h, found, err = db.GetRange(nil, key, Range{Record: rec, From: 5, N: 7})
	if err != nil || !found || h.Off() != rec || string(part) != "vvvvvvv" {
		t.Fatalf("the put-over record's range = %q at %#x, %v, %v", part, h.Off(), found, err)
	}
	if now, _, _, _ := db.GetRange(nil, key, Range{From: 5, N: 7}); string(now) != "wwwwwww" {
		t.Fatalf("the newest record's range = %q", now)
	}
	// Deleted: the record is there still.
	if err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	if part, _, found, err := db.GetRange(nil, key, Range{Record: rec, From: 18, N: 7}); err != nil || !found || string(part) != "vv" {
		t.Fatalf("the deleted key's record = %q, %v, %v", part, found, err)
	}
	other := ruleKey(101)
	for name, at := range map[string]storage.Offset{
		"another key's record": rec,
		"inside the record":    rec + 1,
		"past the log":         1 << 50,
	} {
		k := key
		if name == "another key's record" {
			k = other
		}
		if part, _, found, err := db.GetRange(nil, k, Range{Record: at, N: 7}); err != nil || found || len(part) != 0 {
			t.Errorf("%s: %q, %v, %v; want no record and no error", name, part, found, err)
		}
	}
}

// A get whose key sits in a long run of equal prefixes reads candidate
// keys — a header and a key each, into one scratch — until its match,
// and no value but the one it returns.
func TestGetWalksATieReadingKeysOnly(t *testing.T) {
	opt, dev := testOptions(t)
	opt.L0MaxKeys = 512
	opt.NodeSize = 8192 // one leaf holds the whole run
	db, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const run, valLen = 300, 200
	tied := func(i int) []byte { return []byte(fmt.Sprintf("sameprefix00-%04d", i)) }
	value := bytes.Repeat([]byte("v"), valLen)
	for i := 0; i < run; i++ {
		if err := db.Put(tied(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	keyLen := len(tied(0))

	most := uint64(0)
	for i := 0; i < run; i++ {
		if i == 0 {
			db.Get(tied(i)) // the one leaf is cached from here on
		}
		dev.ResetStats()
		if v, found, err := db.Get(tied(i)); err != nil || !found || len(v) != valLen {
			t.Fatalf("Get(%q) = %d bytes, %v, %v", tied(i), len(v), found, err)
		}
		st := dev.Stats()
		cands := (st.ReadOps - 1) / 2
		if st.ReadOps%2 != 1 || cands < 1 || cands > run || st.BytesRead != cands*uint64(vlog.EncodedLen(keyLen, valLen)-valLen)+valLen {
			t.Fatalf("Get(%q) made %d reads of %d bytes: not %d keys and one value", tied(i), st.ReadOps, st.BytesRead, cands)
		}
		most = max(most, cands)
	}
	if most != run {
		t.Fatalf("the longest walk compared %d candidate keys, want the whole run of %d", most, run)
	}
}

// The pair Scan hands fn is good until fn returns, and the test holds
// the contract from both sides: a pair kept without a copy is
// overwritten — a batch of records is read into the buffer the last
// batch was read into — and ScanN's pairs, copied, are not.
func TestScanPairIsGoodUntilFnReturns(t *testing.T) {
	db, _, _ := twoLevelDB(t)
	var kept []kv.Pair
	var want []string
	err := db.Scan(ruleKey(100), func(p kv.Pair) bool {
		kept = append(kept, p) // no copy: against the contract
		want = append(want, string(p.Key))
		return len(kept) < scanBatch+4
	})
	if err != nil || len(kept) != scanBatch+4 {
		t.Fatalf("Scan kept %d pairs, %v", len(kept), err)
	}
	for i, p := range kept[:scanBatch] {
		if string(p.Key) == want[i] {
			t.Fatalf("pair %d of the first batch still reads %q after the next batch: Scan no longer reuses its buffer, and its doc comment is out of date", i, p.Key)
		}
	}

	pairs, err := db.ScanN(ruleKey(100), 4)
	if err != nil || len(pairs) != 4 {
		t.Fatalf("ScanN = %d pairs, %v", len(pairs), err)
	}
	if _, err := db.ScanN(ruleKey(500), 16); err != nil { // reuses the pooled buffer
		t.Fatal(err)
	}
	for i, p := range pairs {
		if string(p.Key) != want[i] || len(p.Value) != ruleValLen {
			t.Fatalf("ScanN pair %d = %q (%d byte value) after a later scan, want %q", i, p.Key, len(p.Value), want[i])
		}
	}
}
