package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/storage"
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

// twoLevelDB loads 896 keys with pairwise distinct prefixes, in an
// order that interleaves the levels, into an engine whose deepest level
// is L2: 640 keys end up in L2 and 256 in L1, L0 is empty, the log is
// sealed (a tail read would not count as device traffic) and nothing
// runs in the background.
func twoLevelDB(t *testing.T) (*DB, *storage.MemDevice, *recordingListener) {
	t.Helper()
	opt, dev := testOptions(t)
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
		it := db.levels[i].tree.Iter()
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
		if es.Kind == btree.SegLeaf {
			leaves += len(es.Data) / db.opt.NodeSize
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
	scan()
	st := dev.Stats()

	// 16 records (a header and a body each), and one full key where the
	// seek met start's own prefix: in the one level that holds it.
	const record, key = 8 + ruleKeyLen + ruleValLen, 8 + ruleKeyLen
	if st.ReadOps > 2*(16+1) || st.BytesRead > 16*record+key {
		t.Fatalf("ScanN(start, 16) made %d reads of %d bytes, budget %d of %d", st.ReadOps, st.BytesRead, 2*(16+1), 16*record+key)
	}
}
