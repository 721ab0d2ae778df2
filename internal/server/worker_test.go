package server

import (
	"bytes"
	"fmt"
	"testing"

	"tebis/internal/kv"
	"tebis/internal/replica"
	"tebis/internal/wire"
)

// TestRepliesBuiltInPlaceAreTheSameBytes: a worker builds a get's and a
// scan's reply where it is sent from — the engine appends the value, or
// pair after pair, behind the reply's blank prefix in the worker's
// message buffer — and what leaves must be, byte for byte and flag for
// flag, what collecting the result first and encoding it afterwards
// gave: that path, written out here over DB.Get and DB.ScanN, is the
// reference.
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

	// The get and get-rest the parent commit served.
	reference := func(key []byte, from, replySize int) (uint8, []byte) {
		val, found, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		rep, flags := wire.GetReply{}, uint8(0)
		if found && from <= len(val) {
			rest := val[from:]
			rep = wire.GetReply{Found: true, TotalSize: uint32(len(val)), Value: rest}
			if budget := getReplyBudget(wire.Header{ReplySize: uint32(replySize)}); len(rest) > budget {
				rep.Value, flags = rest[:budget], wire.FlagPartial
			}
		}
		return flags, rep.Encode(nil)
	}
	for _, tc := range []struct {
		key             string
		from, replySize int
	}{
		{"key0042", 0, 1024},    // found, in a level
		{"key0599", 0, 1024},    // found, in L0
		{"nokey", 0, 1024},      // miss
		{"gone", 0, 1024},       // deleted
		{"empty", 0, 1024},      // found, no bytes
		{"big", 0, 1024},        // partial
		{"big", 0, 128},         // two lines
		{"big", 0, 64},          // the smallest slot: one line
		{"big", 0, 8192},        // whole
		{"big", 883, 1024},      // the rest, partial again
		{"big", 883, 8192},      // the rest, whole
		{"big", 3000, 1024},     // the rest of nothing
		{"big", 3001, 1024},     // past the end
		{"key0042", 3, 1024},    // a small value's tail
		{"nokey", 5, 1024},      // the rest of a miss
		{"big", 1 << 31, 1024},  // an offset no value has
		{"big", 1<<32 - 1, 256}, // the largest the field holds
	} {
		wantFlags, want := reference([]byte(tc.key), tc.from, tc.replySize)
		op, req := wire.OpGet, wire.GetReq{Key: []byte(tc.key)}.Encode(nil)
		if tc.from != 0 {
			op, req = wire.OpGetRest, wire.GetRestReq{Key: []byte(tc.key), Offset: uint32(tc.from)}.Encode(nil)
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
