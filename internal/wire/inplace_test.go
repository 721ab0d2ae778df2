package wire

import (
	"bytes"
	"testing"

	"tebis/internal/kv"
)

// sizedPayload is what every payload codec offers a sender.
type sizedPayload interface {
	Size() int
	Encode(dst []byte) []byte
}

func everyPayload() map[string]sizedPayload {
	return map[string]sizedPayload{
		"PutReq":          PutReq{Key: []byte("user000042"), Value: bytes.Repeat([]byte("v"), 700)},
		"GetReq":          GetReq{Key: []byte("user000042")},
		"GetRestReq":      GetRestReq{Key: []byte("user000042"), Offset: 900},
		"ScanReq":         ScanReq{Start: []byte("user"), Count: 16},
		"GetReply":        GetReply{Found: true, TotalSize: 300, Value: bytes.Repeat([]byte("x"), 300)},
		"ScanReply":       ScanReply{Pairs: []kv.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("bb")}, {Key: []byte("c"), Value: bytes.Repeat([]byte("z"), 90)}}},
		"StatusReply":     StatusReply{Status: 1},
		"FlushTail":       FlushTail{RegionID: 3, PrimarySeg: 12},
		"CompactionStart": CompactionStart{RegionID: 3, JobID: 77, SrcLevel: 1, DstLevel: 2},
		"IndexSegment":    IndexSegment{RegionID: 3, JobID: 77, DstLevel: 2, PrimarySeg: 12, Codec: 1, Frame: bytes.Repeat([]byte{0xC5}, 900)},
		"GCRelease":       GCRelease{RegionID: 7, Segs: []uint32{3, 1 << 20, 9}},
		"CompactionDone":  CompactionDone{RegionID: 3, JobID: 77, SrcLevel: 1, DstLevel: 2, Root: 1 << 33, NumKeys: 5, Watermark: 99},
	}
}

// TestEncodeAllocatesOnceFromSize: Size is the exact encoded length, so
// Encode(nil) allocates one buffer of exactly that size, and Encode into
// a buffer with room allocates nothing and leaves what was there alone.
func TestEncodeAllocatesOnceFromSize(t *testing.T) {
	for name, p := range everyPayload() {
		enc := p.Encode(nil)
		if len(enc) != p.Size() || cap(enc) != p.Size() {
			t.Errorf("%s: Encode(nil) is %d bytes in a %d-byte buffer, Size() %d", name, len(enc), cap(enc), p.Size())
		}
		if got := testing.AllocsPerRun(50, func() { _ = p.Encode(nil) }); got != 1 {
			t.Errorf("%s: Encode(nil) allocates %v times, want 1", name, got)
		}
		scratch := make([]byte, HeaderSize, MessageSize(p.Size()))
		if got := testing.AllocsPerRun(50, func() { _ = p.Encode(scratch) }); got != 0 {
			t.Errorf("%s: Encode into a buffer with room allocates %v times", name, got)
		}
		if behind := p.Encode(scratch); !bytes.Equal(behind[HeaderSize:], enc) || &behind[0] != &scratch[0] {
			t.Errorf("%s: Encode behind a header slot moved or changed the payload", name)
		}
	}
}

// TestMsgBufBuildsTheSameBytesInPlace: a message finished in place around
// a payload encoded behind the header slot is byte-identical to the
// format's reference — the payload behind the header, or for a payload
// that fits inside the header, in its reserved bytes — whatever an
// earlier, longer message left in the buffer, and is built without
// allocating; finishing again under another header changes the header
// alone; a traced request's payload, which moves behind its trace ID, is
// copied there and left where it was built, so a retry finds it again; a
// payload that is not in the buffer is copied in.
func TestMsgBufBuildsTheSameBytesInPlace(t *testing.T) {
	var mb MsgBuf
	dirty := bytes.Repeat([]byte{0xAB}, 4000)
	mb.Finish(Header{Opcode: OpPut}, dirty) // leaves 0xAB where padding will be
	mb.Finish(Header{Opcode: OpPut, TraceID: 1}, dirty)

	for _, traceID := range []uint64{0, 7} {
		hdr := Header{Opcode: OpGetReply, Flags: FlagPartial, RegionID: 3, RequestID: 99, TraceID: traceID, Tenant: 1, SentAt: 12345}
		for name, p := range everyPayload() {
			payload := p.Encode(mb.Reserve(p.Size()))
			got := mb.Finish(hdr, payload)
			if !bytes.Equal(got, reference(hdr, p.Encode(nil))) {
				t.Fatalf("%s, trace %d: in-place message differs from the reference", name, traceID)
			}
			if traceID == 0 && len(got) > HeaderSize && &payload[0] != &got[HeaderSize] {
				t.Fatalf("%s: payload was not encoded in place", name)
			}
			// A retry: same payload, new header.
			retry := hdr
			retry.RequestID, retry.ReplyOffset = 100, 4096
			if got := mb.Finish(retry, payload); !bytes.Equal(got, reference(retry, p.Encode(nil))) {
				t.Fatalf("%s, trace %d: re-finished message differs from the reference", name, traceID)
			}
			if allocs := testing.AllocsPerRun(20, func() { mb.Finish(hdr, p.Encode(mb.Reserve(p.Size()))) }); allocs != 0 {
				t.Errorf("%s, trace %d: building a message in a warm MsgBuf allocates %v times", name, traceID, allocs)
			}
		}
	}

	hdr := Header{Opcode: OpGetReply, Flags: FlagPartial, RegionID: 3, RequestID: 99, Tenant: 1, SentAt: 12345}
	// A payload from elsewhere (an error text) is copied in.
	for _, text := range [][]byte{[]byte("server: region epoch mismatch"), bytes.Repeat([]byte("long "), 40)} {
		if got := mb.Finish(hdr, text); !bytes.Equal(got, reference(hdr, text)) {
			t.Fatalf("foreign payload of %d bytes: message differs from the reference", len(text))
		}
	}
	// Header-only and zero-value buffers work too.
	var fresh MsgBuf
	got := fresh.Finish(Header{Opcode: OpNoop, RequestID: 5}, nil)
	if h, err := DecodeHeader(got); len(got) != HeaderSize || err != nil || h.RequestID != 5 {
		t.Fatalf("header-only message = %d bytes, header %+v, %v", len(got), h, err)
	}
}

// replyCases are the replies a worker builds where they are sent from:
// the shapes a get and a scan can take.
func replyCases() (gets map[string]GetReply, scans map[string]ScanReply) {
	sixteen := ScanReply{}
	for i := 0; i < 16; i++ {
		sixteen.Pairs = append(sixteen.Pairs, kv.Pair{Key: []byte{'k', byte('a' + i)}, Value: bytes.Repeat([]byte{byte(i)}, i*7)})
	}
	return map[string]GetReply{
			"found":       {Found: true, TotalSize: 300, Value: bytes.Repeat([]byte("x"), 300)},
			"miss":        {},
			"partial":     {Found: true, Partial: true, TotalSize: 70000, Value: bytes.Repeat([]byte("p"), 883), Record: 0x0123456789},
			"empty value": {Found: true},
		}, map[string]ScanReply{
			"no pairs": {},
			"one pair": {Pairs: []kv.Pair{{Key: []byte("only"), Value: []byte("1")}}},
			"16 pairs": sixteen,
		}
}

// TestRepliesBuiltInPlace: a GetReply whose value the engine appends
// behind a blank status byte — a partial one's total and record appended
// behind its chunk — and a ScanReply whose pairs arrive one by one
// behind a blank count, are — once finished — the bytes the format
// says, written out here field by field, and the bytes Encode gives;
// they decode to what went in; and over a buffer an earlier, longer
// reply left dirty, building them in a ReplyBuf allocates nothing.
func TestRepliesBuiltInPlace(t *testing.T) {
	le32 := func(dst []byte, v int) []byte { return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
	var mb ReplyBuf
	mb.Finish(Header{Opcode: OpGetReply}, bytes.Repeat([]byte{0xAB}, 4000))
	gets, scans := replyCases()

	for name, r := range gets {
		want := []byte{0}
		if r.Found {
			want[0] = 1
		}
		want = append(want, r.Value...)
		if r.Partial {
			want[0] |= 2
			want = le32(le32(le32(want, int(r.TotalSize)), int(r.Record)), int(r.Record>>32))
		}
		if len(want) != r.Size() {
			t.Fatalf("get %s: Size %d, the format's %d bytes", name, r.Size(), len(want))
		}

		build := func() []byte {
			p := BeginGetReply(mb.Reserve(r.Size()))
			p = append(p, r.Value...) // the engine's append
			if r.Partial {
				return FinishPartialGetReply(p, 0, r.TotalSize, r.Record)
			}
			FinishGetReply(p, r.Found)
			return p
		}
		got := build()
		if !bytes.Equal(got, want) || !bytes.Equal(r.Encode(nil), want) {
			t.Fatalf("get %s: built in place %x, Encode %x, the format %x", name, got, r.Encode(nil), want)
		}
		if msg := mb.Finish(Header{Opcode: OpGetReply}, got); len(msg) > ReplyLine && &got[0] != &msg[ReplyLine] {
			t.Fatalf("get %s: the reply was not built in the message", name)
		}
		back, err := DecodeGetReply(got)
		if err != nil || back.Found != r.Found || back.Partial != r.Partial || back.TotalSize != r.TotalSize ||
			back.Record != r.Record || !bytes.Equal(back.Value, r.Value) {
			t.Fatalf("get %s: decodes to %+v, %v", name, back, err)
		}
		if allocs := testing.AllocsPerRun(20, func() { build() }); allocs != 0 {
			t.Errorf("get %s: building the reply in a warm MsgBuf allocates %v times", name, allocs)
		}
	}

	for name, r := range scans {
		want := le32(nil, len(r.Pairs))
		for _, p := range r.Pairs {
			want = append(le32(want, len(p.Key)), p.Key...)
			want = append(le32(want, len(p.Value)), p.Value...)
		}

		build := func() []byte {
			p := BeginScanReply(mb.Reserve(r.Size()))
			for _, pair := range r.Pairs { // the scan's fn, pair by pair
				p = AppendScanPair(p, pair)
			}
			FinishScanReply(p, len(r.Pairs))
			return p
		}
		got := build()
		if !bytes.Equal(got, want) || !bytes.Equal(r.Encode(nil), want) {
			t.Fatalf("scan %s: built in place %x, Encode %x, the format %x", name, got, r.Encode(nil), want)
		}
		back, err := DecodeScanReply(got)
		if err != nil || len(back.Pairs) != len(r.Pairs) {
			t.Fatalf("scan %s: decodes to %d pairs, %v", name, len(back.Pairs), err)
		}
		for i, p := range back.Pairs {
			if !bytes.Equal(p.Key, r.Pairs[i].Key) || !bytes.Equal(p.Value, r.Pairs[i].Value) {
				t.Fatalf("scan %s: pair %d decodes to %q:%q", name, i, p.Key, p.Value)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { build() }); allocs != 0 {
			t.Errorf("scan %s: building the reply in a warm MsgBuf allocates %v times", name, allocs)
		}
	}
}
