package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tebis/internal/kv"
)

func TestPaddedPayloadSize(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0},
		{1, 64},      // one line: no minimum payload
		{60, 64},     // 60+4 = 64 exactly
		{61, 128},    // spills into a second line
		{124, 128},   // 124+4 = 128 exactly
		{125, 192},   // spills
		{200, 256},   // four lines
		{252, 256},   // fits with trailer
		{253, 320},   // 253+4 > 256 → next multiple of 64
		{256, 320},   // needs trailer room
		{1000, 1024}, // 1000+4 → 1024
		{1021, 1088}, // 1021+4 > 1024
	}
	for _, c := range cases {
		if got := PaddedPayloadSize(c.in); got != c.want {
			t.Errorf("PaddedPayloadSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPaddedPayloadInvariants(t *testing.T) {
	f := func(n uint16) bool {
		p := PaddedPayloadSize(int(n))
		if n == 0 {
			return p == 0
		}
		// The smallest multiple of the header size that fits payload +
		// trailer.
		return p%HeaderSize == 0 && p >= int(n)+4 && p < int(n)+4+HeaderSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		PayloadSize: 77,
		Opcode:      OpGet,
		Flags:       FlagPartial | FlagError,
		RegionID:    42,
		RequestID:   0xdeadbeefcafe,
		ReplyOffset: 4096,
		ReplySize:   512,
	}
	buf := make([]byte, HeaderSize)
	if err := EncodeHeader(buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip = %+v, want %+v", got, h)
	}
	// Bytes [26, 60) of a header that is not inline carry nothing: written
	// as zero, and a line with anything there decodes to the same header.
	if !bytes.Equal(buf[26:60], make([]byte, 34)) {
		t.Fatalf("bytes [26, 60) encoded as %x", buf[26:60])
	}
	copy(buf[26:30], "\xa1\xb2\xc3\xd4")
	if got, err := DecodeHeader(buf); err != nil || got != h {
		t.Fatalf("with bytes behind the fields set: %+v, %v, want %+v", got, err, h)
	}
}

func TestDecodeHeaderRejectsBadMagic(t *testing.T) {
	buf := make([]byte, HeaderSize)
	if _, err := DecodeHeader(buf); err != ErrBadMagic {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("payload!"), 40) // 320 bytes
	buf := make([]byte, MessageSize(len(payload)))
	h := Header{Opcode: OpPut, RegionID: 3, RequestID: 9}
	n, err := EncodeMessage(buf, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != MessageSize(len(payload)) {
		t.Fatalf("encoded %d bytes, want %d", n, MessageSize(len(payload)))
	}
	if !PayloadArrived(buf, len(payload)) {
		t.Fatal("PayloadArrived = false")
	}
	gh, gp, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gh.Opcode != OpPut || gh.PayloadSize != uint32(len(payload)) {
		t.Fatalf("header = %+v", gh)
	}
	if !bytes.Equal(gp, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestHeaderOnlyMessage(t *testing.T) {
	buf := make([]byte, HeaderSize)
	n, err := EncodeMessage(buf, Header{Opcode: OpNoop}, nil)
	if err != nil || n != HeaderSize {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !PayloadArrived(buf, 0) {
		t.Fatal("zero payload should be complete with header")
	}
	h, p, err := DecodeMessage(buf)
	if err != nil || h.Opcode != OpNoop || len(p) != 0 {
		t.Fatalf("decode = %+v %q %v", h, p, err)
	}
}

func TestPartialPayloadNotArrived(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 300)
	full := make([]byte, MessageSize(len(payload)))
	if _, err := EncodeMessage(full, Header{Opcode: OpPut}, payload); err != nil {
		t.Fatal(err)
	}
	// Simulate torn delivery: header present, trailer missing.
	torn := append([]byte(nil), full...)
	for i := len(torn) - 4; i < len(torn); i++ {
		torn[i] = 0
	}
	if PayloadArrived(torn, len(payload)) {
		t.Fatal("trailer missing but PayloadArrived = true")
	}
	if _, _, err := DecodeMessage(torn); err == nil {
		t.Fatal("DecodeMessage should fail on torn message")
	}
}

func TestPutReqRoundTrip(t *testing.T) {
	r := PutReq{Key: []byte("key"), Value: []byte("value bytes")}
	got, err := DecodePutReq(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Value, r.Value) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestPutReqPropertyRoundTrip(t *testing.T) {
	f := func(key, value []byte) bool {
		got, err := DecodePutReq(PutReq{Key: key, Value: value}.Encode(nil))
		return err == nil && bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGetReqAndRestRoundTrip(t *testing.T) {
	g, err := DecodeGetReq(GetReq{Key: []byte("abc")}.Encode(nil))
	if err != nil || string(g.Key) != "abc" {
		t.Fatalf("get = %+v %v", g, err)
	}
	rr, err := DecodeGetRestReq(GetRestReq{Key: []byte("abc"), Offset: 512}.Encode(nil))
	if err != nil || string(rr.Key) != "abc" || rr.Offset != 512 {
		t.Fatalf("rest = %+v %v", rr, err)
	}
}

func TestScanRoundTrip(t *testing.T) {
	r, err := DecodeScanReq(ScanReq{Start: []byte("s"), Count: 99}.Encode(nil))
	if err != nil || string(r.Start) != "s" || r.Count != 99 {
		t.Fatalf("scan = %+v %v", r, err)
	}
	rep := ScanReply{Pairs: []kv.Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}}
	got, err := DecodeScanReply(rep.Encode(nil))
	if err != nil || len(got.Pairs) != 2 || string(got.Pairs[1].Value) != "2" {
		t.Fatalf("scan reply = %+v %v", got, err)
	}
}

func TestGetReplyRoundTrip(t *testing.T) {
	r := GetReply{Found: true, TotalSize: 1000, Value: bytes.Repeat([]byte{7}, 100)}
	got, err := DecodeGetReply(r.Encode(nil))
	if err != nil || !got.Found || got.TotalSize != 1000 || len(got.Value) != 100 {
		t.Fatalf("get reply = %+v %v", got, err)
	}
	miss, err := DecodeGetReply(GetReply{}.Encode(nil))
	if err != nil || miss.Found {
		t.Fatalf("miss = %+v %v", miss, err)
	}
}

func TestStatusReplyRoundTrip(t *testing.T) {
	got, err := DecodeStatusReply(StatusReply{Status: 3}.Encode(nil))
	if err != nil || got.Status != 3 {
		t.Fatalf("status = %+v %v", got, err)
	}
}

func TestControlPayloadsRoundTrip(t *testing.T) {
	ft, err := DecodeFlushTail(FlushTail{RegionID: 5, PrimarySeg: 77}.Encode(nil))
	if err != nil || ft.RegionID != 5 || ft.PrimarySeg != 77 {
		t.Fatalf("flush = %+v %v", ft, err)
	}
	for _, filter := range []bool{false, true} {
		cs, err := DecodeCompactionStart(CompactionStart{
			RegionID: 9, JobID: 1<<62 + 5, SrcLevel: 1, DstLevel: 2, Filter: filter,
		}.Encode(nil))
		if err != nil || cs.RegionID != 9 || cs.JobID != 1<<62+5 || cs.SrcLevel != 1 || cs.DstLevel != 2 || cs.Filter != filter {
			t.Fatalf("compaction start = %+v %v", cs, err)
		}
	}
	is, err := DecodeIndexSegment(IndexSegment{
		RegionID: 9, JobID: 41, DstLevel: 2, PrimarySeg: 33, DataLen: 4096,
	}.Encode(nil))
	if err != nil || is.JobID != 41 || is.DstLevel != 2 || is.PrimarySeg != 33 || is.DataLen != 4096 {
		t.Fatalf("index segment = %+v %v", is, err)
	}
	for _, moved := range []bool{false, true} {
		want := CompactionDone{
			RegionID: 9, JobID: 41, SrcLevel: 1, DstLevel: 2, Root: 1 << 40, NumKeys: 12345, Watermark: 1 << 33, Moved: moved,
		}
		cd, err := DecodeCompactionDone(want.Encode(nil))
		if err != nil || cd != want {
			t.Fatalf("done = %+v %v, want %+v", cd, err, want)
		}
	}
}

// TestDecodersRejectTruncation: a decoder fails on every cut of its
// payload that falls inside a length, a key or a fixed field. A put's
// value has no length of its own — PayloadSize, which the header's or the
// trailer's word vouches for, is where it ends — so a put cut inside its
// value is a put of a shorter value, and one cut inside its key length or
// key fails. A uvarint that runs past the payload, or a key length larger
// than the payload, is ErrShortBuffer; a byte behind a get's, get-rest's
// or scan's last field is ErrBadHeader.
func TestDecodersRejectTruncation(t *testing.T) {
	key, val := []byte("abc"), []byte("defg")
	full := PutReq{Key: key, Value: val}.Encode(nil)
	for i := 0; i < len(full); i++ {
		r, err := DecodePutReq(full[:i])
		switch {
		case i < 1+len(key):
			if err == nil {
				t.Fatalf("put cut at %d, inside its key, decoded to %+v", i, r)
			}
		case err != nil || !bytes.Equal(r.Key, key) || !bytes.Equal(r.Value, val[:i-1-len(key)]):
			t.Fatalf("put cut at %d, inside its value: %+v, %v; want the value's first %d bytes", i, r, err, i-1-len(key))
		}
	}
	long := bytes.Repeat([]byte("k"), 200) // a two-byte key length
	for name, enc := range map[string][]byte{
		"get":      GetReq{Key: long}.Encode(nil),
		"get-rest": GetRestReq{Key: long, Offset: 1 << 20}.Encode(nil),
		"scan":     ScanReq{Start: long, Count: 300}.Encode(nil),
		"put":      PutReq{Key: long}.Encode(nil),
	} {
		for i := 0; i < len(enc); i++ {
			var err error
			switch name {
			case "get":
				_, err = DecodeGetReq(enc[:i])
			case "get-rest":
				_, err = DecodeGetRestReq(enc[:i])
			case "scan":
				_, err = DecodeScanReq(enc[:i])
			case "put":
				_, err = DecodePutReq(enc[:i])
			}
			if !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("%s cut at %d of %d bytes: %v, want ErrShortBuffer", name, i, len(enc), err)
			}
		}
	}
	for name, p := range map[string][]byte{
		"a key length that runs past the payload": {0x80},
		"a key length past the payload":           {5, 'a', 'b'},
		"a key length past a 64-bit payload":      binary.AppendUvarint(nil, 1<<40),
	} {
		if _, err := DecodePutReq(p); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("put with %s: %v, want ErrShortBuffer", name, err)
		}
		if _, err := DecodeGetReq(p); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("get with %s: %v, want ErrShortBuffer", name, err)
		}
	}
	for name, p := range map[string][]byte{
		"a count that runs past the payload": {1, 'k', 0x90},
		"no count":                           {1, 'k'},
	} {
		if _, err := DecodeScanReq(p); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("scan with %s: %v, want ErrShortBuffer", name, err)
		}
		if _, err := DecodeGetRestReq(p); !errors.Is(err, ErrShortBuffer) {
			t.Errorf("get-rest with %s: %v, want ErrShortBuffer", name, err)
		}
	}
	for name, p := range map[string][]byte{
		"a count past 32 bits":         binary.AppendUvarint([]byte{1, 'k'}, 1<<32),
		"a byte behind the count":      {1, 'k', 16, 0},
		"a uvarint longer than 64 bit": {1, 'k', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := DecodeScanReq(p); !errors.Is(err, ErrBadHeader) {
			t.Errorf("scan with %s: %v, want ErrBadHeader", name, err)
		}
		if _, err := DecodeGetRestReq(p); !errors.Is(err, ErrBadHeader) {
			t.Errorf("get-rest with %s: %v, want ErrBadHeader", name, err)
		}
	}
	if _, err := DecodeGetReq([]byte{1, 'k', 0}); !errors.Is(err, ErrBadHeader) {
		t.Errorf("get with a byte behind its key: %v, want ErrBadHeader", err)
	}
	fullCD := CompactionDone{RegionID: 1, JobID: 3, Root: 7}.Encode(nil)
	for i := 0; i < len(fullCD); i++ {
		if _, err := DecodeCompactionDone(fullCD[:i]); err == nil {
			t.Fatalf("truncated done at %d decoded", i)
		}
	}
	fullCS := CompactionStart{RegionID: 1, JobID: 3, SrcLevel: 0, DstLevel: 1}.Encode(nil)
	for i := 0; i < len(fullCS); i++ {
		if _, err := DecodeCompactionStart(fullCS[:i]); err == nil {
			t.Fatalf("truncated start at %d decoded", i)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for o := OpInvalid; o <= OpGCReleaseAck; o++ {
		if o.String() == "" {
			t.Fatalf("op %d has empty name", o)
		}
	}
}

// TestRetiredOpNames: a retired opcode keeps its number and is named
// for it, and the opcodes after the gaps keep their names.
func TestRetiredOpNames(t *testing.T) {
	for _, o := range []Op{21, 22, 25, 26, 27, 28, 29, 30} {
		if want := fmt.Sprintf("reserved-%d", o); o.String() != want {
			t.Errorf("op %d is named %q, want %q", o, o.String(), want)
		}
	}
	if OpSyncTailAck.String() != "sync-tail-ack" || OpGCRelease.String() != "gc-release" || OpGCReleaseAck.String() != "gc-release-ack" {
		t.Errorf("ops named %q, %q, %q", OpSyncTailAck, OpGCRelease, OpGCReleaseAck)
	}
}

// TestDecodeRobustnessRandomBytes: no decoder may panic or read out of
// bounds on arbitrary input (the spinning thread parses memory a remote
// peer wrote).
func TestDecodeRobustnessRandomBytes(t *testing.T) {
	rnd := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 5000; trial++ {
		n := rnd.Intn(1024)
		buf := make([]byte, n)
		rnd.Read(buf)
		// Occasionally plant a valid magic so header parsing proceeds
		// deeper.
		if n >= HeaderSize && trial%3 == 0 {
			binary.LittleEndian.PutUint32(buf[HeaderSize-4:HeaderSize], Magic)
		}
		_, _, _ = DecodeMessage(buf)
		_, _ = DecodeHeader(buf)
		_ = PayloadArrived(buf, rnd.Intn(4096))
		_, _ = DecodePutReq(buf)
		_, _ = DecodeGetReq(buf)
		_, _ = DecodeGetRestReq(buf)
		_, _ = DecodeScanReq(buf)
		_, _ = DecodeGetReply(buf)
		_, _ = DecodeScanReply(buf)
		_, _ = DecodeStatusReply(buf)
		_, _ = DecodeFlushTail(buf)
		_, _ = DecodeCompactionStart(buf)
		_, _ = DecodeIndexSegment(buf)
		_, _ = DecodeCompactionDone(buf)
		_, _ = DecodeGCRelease(buf)
	}
}

// TestHeaderTraceIDRoundTrip: a trace ID is no header field. A traced
// request, inline or out of line, carries it as the first TracePrefix
// bytes behind its fields — of the header's reserved bytes or of the
// payload behind the header — flags itself FlagTraced, and decodes back
// to it, the payload without the prefix. EncodeHeader, which writes
// header fields alone, writes none of it.
func TestHeaderTraceIDRoundTrip(t *testing.T) {
	h := Header{Opcode: OpPut, RegionID: 7, RequestID: 99, TraceID: 0x1122334455667788}
	for _, n := range []int{12, InlineMax - TracePrefix, InlineMax - TracePrefix + 1, 300} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		var mb MsgBuf
		msg := mb.Finish(h, payload)
		at, flags := headerFields, uint8(FlagTraced|FlagInline)
		if n+TracePrefix > InlineMax {
			at, flags = HeaderSize, FlagTraced
		}
		if msg[5] != flags {
			t.Fatalf("%d payload bytes: flags %#x, want %#x", n, msg[5], flags)
		}
		if id := binary.LittleEndian.Uint64(msg[at:]); id != h.TraceID {
			t.Fatalf("%d payload bytes: trace ID at [%d:%d] = %#x, want %#x", n, at, at+8, id, h.TraceID)
		}
		got, p, err := DecodeMessage(msg)
		want := h
		want.PayloadSize, want.Flags = uint32(n), msg[5]
		if err != nil || got != want || !bytes.Equal(p, payload) {
			t.Fatalf("%d payload bytes: round trip = %+v, %d bytes, %v; want %+v", n, got, len(p), err, want)
		}
	}
	buf := make([]byte, HeaderSize)
	if err := EncodeHeader(buf, Header{Opcode: OpPut, PayloadSize: 12, TraceID: h.TraceID}); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeHeader(buf); err != nil || got.TraceID != 0 || got.Traced() {
		t.Fatalf("EncodeHeader with a trace ID decodes to %+v, %v", got, err)
	}
}

// TestTraceIDFrameCompat pins the argument for carrying a trace ID ahead
// of the payload instead of in a header field (it had header bytes
// [24, 32) of the 128-byte request header): the fields of a traced
// request's header are those of the same request unsampled, byte for
// byte, but for FlagTraced, so a trace costs the other 127 requests in
// 128 nothing; the traced request's payload is the unsampled one's behind
// 8 bytes of ID; and both decode to the same header but for the flag and
// the ID.
func TestTraceIDFrameCompat(t *testing.T) {
	h := Header{
		Opcode:      OpGet,
		Flags:       FlagPartial,
		RegionID:    11,
		RequestID:   0xfeedface,
		ReplyOffset: 2048,
		ReplySize:   256,
		SentAt:      99,
	}
	payload := bytes.Repeat([]byte{0x42}, 300)
	var plainBuf, tracedBuf MsgBuf
	plain := plainBuf.Finish(h, payload)
	traced := h
	traced.TraceID = 0xabcdef
	neu := tracedBuf.Finish(traced, payload)
	for i := 0; i < HeaderSize; i++ {
		if d := neu[i] ^ plain[i]; d != 0 && (i != 5 || d != FlagTraced) {
			t.Fatalf("traced header differs from the unsampled one at byte %d (%#x vs %#x)", i, neu[i], plain[i])
		}
	}
	if !bytes.Equal(neu[HeaderSize+TracePrefix:HeaderSize+TracePrefix+len(payload)], plain[HeaderSize:HeaderSize+len(payload)]) ||
		binary.LittleEndian.Uint64(neu[HeaderSize:]) != traced.TraceID {
		t.Fatal("the traced payload is not the unsampled one behind its trace ID")
	}
	ph, _, err := DecodeMessage(plain)
	if err != nil || ph.TraceID != 0 || ph.Traced() {
		t.Fatalf("unsampled decode = %+v, %v", ph, err)
	}
	th, p, err := DecodeMessage(neu)
	if err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("traced decode: %d payload bytes, %v", len(p), err)
	}
	th.Flags &^= FlagTraced
	th.TraceID = 0
	if th != ph {
		t.Fatalf("traced decode = %+v, unsampled %+v", th, ph)
	}
}

// TestOldRequestFrameDoesNotDecode: a request in a format that came
// before this one is no request in it, nor a reply: its first line holds
// no word of either form. That holds of the 128-byte header format — its
// fields in [0, 48), a payload of up to 76 bytes inline in [48, 124) or
// behind it padded to 128 bytes, and "TEBI" as its word — and of the
// 64-byte line with 32 field bytes — a payload of up to 28 bytes inline in
// [32, 60) or behind it padded to 64 bytes, u32 lengths in its payloads,
// and "TEBQ" as its word.
func TestOldRequestFrameDoesNotDecode(t *testing.T) {
	h := Header{Opcode: OpGet, RegionID: 1, RequestID: 7, ReplyOffset: 64, ReplySize: 1024,
		TraceID: 5, Tenant: 1, Priority: 1, SentAt: 1 << 40}
	for _, tc := range []struct {
		name string
		old  []byte
	}{
		{"an inline get", oldRequestFrame(h, oldKeyed([]byte("user6284781860667377211")), true)},
		{"an inline put", oldRequestFrame(h, oldKeyed([]byte("user000042"), bytes.Repeat([]byte("s"), 23)), true)},
		{"an out-of-line put", oldRequestFrame(h, oldKeyed([]byte("user000064"), bytes.Repeat([]byte("m"), 113)), false)},
		{"a noop", oldRequestFrame(h, nil, false)},
		{"an inline get on a 32-field line", oldLineFrame(h, oldKeyed([]byte("user6284781860667377211x")))},
		{"an S put on a 32-field line", oldLineFrame(h, oldKeyed([]byte("user6284781860667377211x"), []byte("012345678")))},
		{"an inline put on a 32-field line", oldLineFrame(h, oldKeyed([]byte("user000042"), []byte("v1")))},
		{"a noop on a 32-field line", oldLineFrame(h, nil)},
	} {
		if _, err := DecodeHeader(tc.old); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s in the old format: DecodeHeader %v", tc.name, err)
		}
		if _, _, err := DecodeMessage(tc.old); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s in the old format: DecodeMessage %v", tc.name, err)
		}
		if _, _, err := DecodeReply(tc.old); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s in the old format: DecodeReply %v", tc.name, err)
		}
	}
}

// oldKeyed writes a request payload as the formats before this one did:
// each byte string behind its u32 length.
func oldKeyed(strs ...[]byte) []byte {
	var p []byte
	for _, s := range strs {
		p = appendBytes(p, s)
	}
	return p
}

// oldLineFrame writes a request as the 64-byte line with 32 field bytes
// did: the reply offset in bytes at [16, 20), the slot in lines at
// [20, 22), tenant and priority at [22] and [23], [24, 28) reserved, the
// low 32 bits of SentAt at [28, 32), a payload of up to 28 bytes inline
// behind them, and "TEBQ" as its word.
func oldLineFrame(h Header, payload []byte) []byte {
	const oldMagic = 0x54454251
	size, inline := 64, len(payload) > 0 && len(payload) <= 28
	if !inline && len(payload) > 0 {
		size += (len(payload) + 4 + 63) / 64 * 64
	}
	msg := make([]byte, size)
	binary.LittleEndian.PutUint32(msg[0:4], uint32(len(payload)))
	msg[4] = byte(h.Opcode)
	binary.LittleEndian.PutUint16(msg[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(msg[8:16], h.RequestID)
	binary.LittleEndian.PutUint32(msg[16:20], h.ReplyOffset)
	binary.LittleEndian.PutUint16(msg[20:22], uint16(h.ReplySize/64))
	msg[22], msg[23] = h.Tenant, h.Priority
	binary.LittleEndian.PutUint32(msg[28:32], uint32(h.SentAt))
	binary.LittleEndian.PutUint32(msg[60:64], oldMagic)
	if inline {
		msg[5] = FlagInline
		copy(msg[32:], payload)
	} else if len(payload) > 0 {
		copy(msg[64:], payload)
		binary.LittleEndian.PutUint32(msg[size-4:], oldMagic)
	}
	return msg
}

// oldRequestFrame writes a request as the 128-byte header format did.
func oldRequestFrame(h Header, payload []byte, inline bool) []byte {
	const oldHeader, oldMagic = 128, 0x54454249
	size := oldHeader
	if !inline && len(payload) > 0 {
		size += (len(payload) + 4 + oldHeader - 1) / oldHeader * oldHeader
	}
	msg := make([]byte, size)
	binary.LittleEndian.PutUint32(msg[0:4], uint32(len(payload)))
	msg[4] = byte(h.Opcode)
	binary.LittleEndian.PutUint16(msg[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(msg[8:16], h.RequestID)
	binary.LittleEndian.PutUint32(msg[16:20], h.ReplyOffset)
	binary.LittleEndian.PutUint32(msg[20:24], h.ReplySize)
	binary.LittleEndian.PutUint64(msg[24:32], h.TraceID)
	binary.LittleEndian.PutUint32(msg[32:36], 2) // the region epoch it carried
	msg[36], msg[37] = h.Tenant, h.Priority
	binary.LittleEndian.PutUint64(msg[40:48], uint64(h.SentAt))
	binary.LittleEndian.PutUint32(msg[oldHeader-4:oldHeader], oldMagic)
	if inline {
		msg[5] = FlagInline
		copy(msg[48:], payload)
	} else if len(payload) > 0 {
		copy(msg[oldHeader:], payload)
		binary.LittleEndian.PutUint32(msg[size-4:], oldMagic)
	}
	return msg
}

func TestGCReleaseRoundTrip(t *testing.T) {
	got, err := DecodeGCRelease(GCRelease{RegionID: 7, Segs: []uint32{3, 1 << 20, 9}}.Encode(nil))
	if err != nil || got.RegionID != 7 || !slices.Equal(got.Segs, []uint32{3, 1 << 20, 9}) {
		t.Fatalf("release = %+v %v", got, err)
	}
	// Opcodes 21 and 22 (the retired head-trim command) stay reserved,
	// so everything declared after them keeps its wire value.
	if OpSyncTail != 23 || OpGCRelease != 31 || OpGCReleaseAck != 32 {
		t.Fatalf("opcodes renumbered: sync-tail=%d gc-release=%d gc-release-ack=%d",
			OpSyncTail, OpGCRelease, OpGCReleaseAck)
	}
}

// TestTenantPriorityFrameCompat pins the argument for the tenant and
// priority header bytes: they live at [20] and [21] (they were [22] and
// [23] of the line with 32 field bytes, [36] and [37] of the 128-byte
// request header), so a request of the default
// tenant in the lowest admission class has zeros there and decodes as
// tenant 0 / priority 0, and a stamped request differs from it only in
// those two bytes.
func TestTenantPriorityFrameCompat(t *testing.T) {
	h := Header{
		PayloadSize: 300,
		Opcode:      OpPut,
		RegionID:    4,
		RequestID:   0xcafe,
	}

	// Unstamped: the tenant/priority bytes are zero and decode to the
	// defaults, every other field intact.
	old := make([]byte, HeaderSize)
	if err := EncodeHeader(old, h); err != nil {
		t.Fatal(err)
	}
	if old[20] != 0 || old[21] != 0 {
		t.Fatalf("an unstamped header holds %#x %#x at [20] and [21]", old[20], old[21])
	}
	got, err := DecodeHeader(old)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("unstamped decode = %+v, want %+v", got, h)
	}

	// Stamped: the frame differs only at bytes 20 and 21.
	stamped := h
	stamped.Tenant = 3
	stamped.Priority = 1
	neu := make([]byte, HeaderSize)
	if err := EncodeHeader(neu, stamped); err != nil {
		t.Fatal(err)
	}
	for i := range neu {
		if i == 20 || i == 21 {
			continue
		}
		if neu[i] != old[i] {
			t.Fatalf("stamped frame differs from the unstamped one at byte %d (%#x vs %#x)",
				i, neu[i], old[i])
		}
	}
	got, err = DecodeHeader(neu)
	if err != nil {
		t.Fatal(err)
	}
	if got != stamped {
		t.Fatalf("stamped decode = %+v, want %+v", got, stamped)
	}
}
