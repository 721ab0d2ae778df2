package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// TestRepliesBuiltInPlaceAreTheSameBytes: a worker builds a get's and a
// scan's reply where it is sent from — the engine appends the value, or
// pair after pair, behind the reply's blank status byte in the worker's
// message buffer — and what leaves must be, byte for byte and flag for
// flag, what collecting the result first and encoding it afterwards
// gave: that path, written out here over DB.Get and DB.ScanN, is the
// reference. A partial reply's chunk leaves room for the value's total
// and its record behind it; a whole reply's value may use that room. A
// get-rest that names the record reads it; one that names a record that
// is no record of the key's is a miss.
func TestRepliesBuiltInPlaceAreTheSameBytes(t *testing.T) {
	s, _ := newTestServer(t, "s0")
	p, err := s.OpenPrimary(wholeKeyspace("s0"), replica.NoReplication)
	if err != nil {
		t.Fatal(err)
	}
	db := p.DB()
	big := bytes.Repeat([]byte("0123456789"), 300)
	for i := 0; i < 600; i++ { // through L0 into the levels
		if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range map[string][]byte{"big": big, "empty": {}, "gone": []byte("x")} {
		if err := db.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("gone")); err != nil {
		t.Fatal(err)
	}

	w := newWorker(s, 0)
	call := func(op wire.Op, replySize int, req []byte) (wire.Op, uint8, []byte) {
		t.Helper()
		tk := task{hdr: wire.Header{Opcode: op, RegionID: 1, ReplySize: uint32(replySize)}, body: &req}
		switch op {
		case wire.OpGet:
			return w.doGet(tk)
		case wire.OpGetRest:
			return w.doGetRest(tk)
		}
		return w.doScan(tk)
	}

	// recordOf is where key's newest record is.
	recordOf := func(key string) uint64 {
		_, h, found, err := db.GetRange(nil, []byte(key), lsm.Range{})
		if err != nil || !found {
			t.Fatalf("GetRange %q: %v, %v", key, found, err)
		}
		return uint64(h.Off())
	}
	bigRec := recordOf("big")
	// The get and get-rest, collected first and encoded after.
	reference := func(key []byte, from, replySize int, rec uint64) (uint8, []byte) {
		val, found, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		rep, flags := wire.GetReply{}, uint8(0)
		if rec != 0 && rec != recordOf(string(key)) {
			found = false
		}
		if found && from <= len(val) {
			rest := val[from:]
			rep = wire.GetReply{Found: true, TotalSize: uint32(len(rest)), Value: rest}
			if budget := getReplyBudget(wire.Header{ReplySize: uint32(replySize)}); len(rest) > budget {
				rep = wire.GetReply{Found: true, Partial: true, TotalSize: uint32(len(val)),
					Value: rest[:budget-wire.PartialGetReplySuffix], Record: recordOf(string(key))}
				flags = wire.FlagPartial
			}
		}
		return flags, rep.Encode(nil)
	}
	for _, tc := range []struct {
		key             string
		from, replySize int
		rec             uint64 // the record a get-rest names
	}{
		{"key0042", 0, 1024, 0},        // found, in a level
		{"key0599", 0, 1024, 0},        // found, in L0
		{"nokey", 0, 1024, 0},          // miss
		{"gone", 0, 1024, 0},           // deleted
		{"empty", 0, 1024, 0},          // found, no bytes
		{"big", 0, 1024, 0},            // partial
		{"big", 0, 128, 0},             // two lines
		{"big", 0, 64, 0},              // the smallest slot: one line
		{"big", 0, 8192, 0},            // whole
		{"big", 883, 1024, 0},          // the rest, partial again
		{"big", 883, 8192, 0},          // the rest, whole
		{"big", 3000, 1024, 0},         // the rest of nothing
		{"big", 3001, 1024, 0},         // past the end
		{"key0042", 3, 1024, 0},        // a small value's tail
		{"nokey", 5, 1024, 0},          // the rest of a miss
		{"big", 1 << 31, 1024, 0},      // an offset no value has
		{"big", 1<<32 - 1, 256, 0},     // the largest the field holds
		{"big", 883, 1024, bigRec},     // the record the partial reply named
		{"big", 2000, 1024, bigRec},    // its last chunk
		{"big", 883, 1024, bigRec + 1}, // inside the record: no record of the key's
		{"key0042", 3, 1024, bigRec},   // another key's record
		{"big", 883, 1024, 1 << 40},    // past the log
	} {
		wantFlags, want := reference([]byte(tc.key), tc.from, tc.replySize, tc.rec)
		op, req := wire.OpGet, wire.GetReq{Key: []byte(tc.key)}.Encode(nil)
		if tc.from != 0 {
			op, req = wire.OpGetRest, wire.GetRestReq{Key: []byte(tc.key), Offset: uint32(tc.from), Record: tc.rec}.Encode(nil)
		}
		gotOp, flags, got := call(op, tc.replySize, req)
		if gotOp != wire.OpGetReply || flags != wantFlags || !bytes.Equal(got, want) {
			t.Errorf("%v %q from %d into a %d byte slot: flags %#x and %d payload bytes, want %#x and %d\n got %.40x\nwant %.40x",
				op, tc.key, tc.from, tc.replySize, flags, len(got), wantFlags, len(want), got, want)
		}
	}

	for _, tc := range []struct {
		start            string
		count, replySize int
	}{
		{"key0100", 16, 4096},
		{"key0590", 16, 4096}, // runs off the end of the keys
		{"zzz", 16, 4096},     // nothing
		{"key0100", 0, 4096},  // a count of zero returns nothing
		{"key0100", 16, 300},  // a slot that holds a few
		{"a", 16, 4096},       // "big" crowds the reply
		{"a", 16, 1024},       // and alone overflows it
	} {
		budget := tc.replySize - 192 // a 4 KB slot holds 3904 bytes of pairs
		all, err := db.ScanN([]byte(tc.start), tc.count)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []kv.Pair
		for size, i := 0, 0; i < len(all); i++ {
			if size += all[i].Size() + 8; size > budget && len(pairs) > 0 {
				break
			}
			pairs = append(pairs, all[i])
		}
		want := wire.ScanReply{Pairs: pairs}.Encode(nil)
		op, flags, got := call(wire.OpScan, tc.replySize, wire.ScanReq{Start: []byte(tc.start), Count: uint32(tc.count)}.Encode(nil))
		if op != wire.OpScanReply || flags != 0 || !bytes.Equal(got, want) {
			t.Errorf("scan %q × %d into a %d byte slot: flags %#x and %d payload bytes, want %d (%d pairs)",
				tc.start, tc.count, tc.replySize, flags, len(got), len(want), len(pairs))
		}
	}
}

// TestDispatchWaitAcrossTheClockWrap: a request header carries the low 32
// bits of the client's SentAt, so the worker takes the dispatch wait
// modulo 2^32 ns. Sent and picked up on either side of a wrap of those
// bits — the pickup's low bits smaller than the stamp's — a wait is still
// what passed, from a microsecond to 4.2 s, as it is away from the wrap.
func TestDispatchWaitAcrossTheClockWrap(t *testing.T) {
	const wrap = int64(1) << 32
	var mb wire.MsgBuf
	wrapped := 0
	for _, now := range []int64{1_760_000_000_000_000_000/wrap*wrap + 500, 77*wrap + 1_000_000, 77*wrap + wrap/2} {
		for _, wait := range []time.Duration{time.Microsecond, 5 * time.Millisecond, time.Second, 4200 * time.Millisecond} {
			sent := now - int64(wait)
			h, err := wire.DecodeHeader(mb.Finish(wire.Header{Opcode: wire.OpGet, RequestID: 1, ReplySize: wire.ReplyLine, SentAt: sent}, nil))
			if err != nil {
				t.Fatal(err)
			}
			if uint32(now) < uint32(sent) {
				wrapped++
			}
			if got := dispatchWait(h, time.Unix(0, now)); got != wait {
				t.Fatalf("sent at %d, picked up at %d: a wait of %v, want %v", sent, now, got, wait)
			}
		}
	}
	if wrapped < 4 {
		t.Fatalf("only %d of the cases straddle a wrap of the low 32 bits", wrapped)
	}
}
