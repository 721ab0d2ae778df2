package lsm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/storage"
)

// fuzzScanOverhead is the per-pair overhead FuzzScanLimit's budget
// charges: a scan reply's, two 4-byte lengths.
const fuzzScanOverhead = 8

// scanFuzzDB builds the engine FuzzScanLimit scans for seed: keys that
// tie on their 12-byte prefix (tieKey) with values of random lengths,
// deletes among them, spread over two or more device levels, a frozen
// table no job may drain and the active L0, whose newest records are in
// the log's unsealed tail — and a few keys the index calls live whose
// log record is a delete, which a scan skips by the record.
func scanFuzzDB(tb testing.TB, seed int64) *DB {
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := New(Options{Device: dev, NodeSize: 512, GrowthFactor: 2, L0MaxKeys: 24, L0Buffers: 3, MaxLevels: 6, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(seed))
	write := func(n int) {
		for j := 0; j < n; j++ {
			key := []byte(tieKey(rnd.Intn(512)))
			if rnd.Intn(5) == 0 {
				err = db.Delete(key)
			} else {
				err = db.Put(key, bytes.Repeat([]byte{byte('a' + j%26)}, rnd.Intn(48)))
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	// The deepest level, then L1 — fewer keys than it holds, so no job
	// cascades and the shape does not depend on when jobs run.
	write(300)
	if err := db.CompactAll(); err != nil {
		tb.Fatal(err)
	}
	write(40)
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := db.holdJobs(); err != nil {
		tb.Fatal(err)
	}
	write(40)
	for j := 0; j < 3; j++ {
		key := []byte(tieKey(rnd.Intn(512)))
		res, err := db.Log().Append(key, nil, true)
		if err != nil {
			tb.Fatal(err)
		}
		if err := db.PutIndexed(key, res.Off, false, len(res.Rec)); err != nil {
			tb.Fatal(err)
		}
	}
	levels := 0
	for _, lv := range db.Levels() {
		if lv.NumKeys > 0 {
			levels++
		}
	}
	if frozen, _ := db.QueueDepth(); levels != 2 || frozen == 0 || db.L0Len() == 0 {
		tb.Fatalf("seed %d: %d levels, %d frozen tables, %d keys in L0", seed, levels, frozen, db.L0Len())
	}
	tb.Cleanup(func() {
		db.releaseJobs()
		db.Close()
		dev.Close()
	})
	return db
}

// scanReference is Scan with lim enforced in fn: the end key first,
// then the byte budget — a pair is cut when the running sum of
// Size()+PairOverhead passes Bytes, unless it is the first — then the
// pair count. It is the rule a scan reply applied before the engine
// knew the limits.
func scanReference(db *DB, start []byte, lim Limit) ([]string, error) {
	var out []string
	size := 0
	err := db.Scan(start, func(p kv.Pair) bool {
		if lim.End != nil && kv.Compare(p.Key, lim.End) >= 0 {
			return false
		}
		size += p.Size() + lim.PairOverhead
		if size > lim.Bytes && len(out) > 0 || len(out) >= lim.Pairs {
			return false
		}
		out = append(out, fmt.Sprintf("%q=%q", p.Key, p.Value))
		return true
	})
	return out, err
}

// FuzzScanLimit: for an engine built from a seed, a start key, a pair
// limit, a byte budget and an end key, ScanLimit returns exactly the
// pairs the reference returns (scanReference).
//
// The corpus holds, for each of a few starts, the budgets that end
// exactly on a pair boundary and a byte either side of it, so that
// the byte rule's comparison and its per-pair overhead are held at the
// edge where they decide.
func FuzzScanLimit(f *testing.F) {
	var dbs [4]*DB
	for seed := range dbs {
		dbs[seed] = scanFuzzDB(f, int64(seed))
	}
	db := dbs[0]
	for _, start := range []string{"", "ab", "sameprefix00", "sameprefix01-200", "sameprefix02-5"} {
		sizes := 0
		if err := db.Scan([]byte(start), func(p kv.Pair) bool {
			sizes += p.Size() + fuzzScanOverhead
			for _, budget := range []int{sizes - 1, sizes, sizes + 1} {
				f.Add(uint8(0), []byte(start), uint8(16), uint16(budget), []byte(nil))
			}
			return sizes < 1500
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), []byte(start), uint8(0), uint16(4000), []byte(nil))
		f.Add(uint8(1), []byte(start), uint8(200), uint16(65535), []byte("sameprefix01-3"))
		f.Add(uint8(2), []byte(start), uint8(5), uint16(100), []byte("sameprefix02"))
		f.Add(uint8(3), []byte(start), uint8(16), uint16(0), []byte("ab\x00\x00"))
	}

	f.Fuzz(func(t *testing.T, seed uint8, start []byte, pairs uint8, budget uint16, end []byte) {
		seed %= uint8(len(dbs))
		db := dbs[seed]
		lim := Limit{Pairs: int(pairs), Bytes: int(budget), PairOverhead: fuzzScanOverhead}
		if len(end) > 0 {
			lim.End = end
		}
		if budget == math.MaxUint16 {
			lim.Bytes = math.MaxInt
		}
		want, wantErr := scanReference(db, start, lim)
		var got []string
		err := db.ScanLimit(start, lim, func(p kv.Pair) bool {
			got = append(got, fmt.Sprintf("%q=%q", p.Key, p.Value))
			return true
		})
		if err != nil || wantErr != nil {
			t.Fatalf("ScanLimit: %v; reference: %v", err, wantErr)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d, ScanLimit(%q, %+v):\n got %d pairs %v\nwant %d pairs %v", seed, start, lim, len(got), got, len(want), want)
		}
	})
}
