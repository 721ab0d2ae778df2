package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// replyReference is the reply ReplyBuf.Finish must produce, written out
// byte by byte from the format: a 32-byte line with the payload size,
// opcode, flags, region and request ID in [0, 16) and ReplyMagic in
// [28, 32); a payload of 1 to 12 bytes in [16, 28) under FlagInline, a
// longer one behind the line, padded to a multiple of 32 bytes whose last
// four hold ReplyMagic again.
func replyReference(h Header, payload []byte) []byte {
	n := len(payload)
	size := ReplyLine
	if n > ReplyInlineMax {
		size += (n + 4 + ReplyLine - 1) / ReplyLine * ReplyLine
	}
	msg := make([]byte, size)
	binary.LittleEndian.PutUint32(msg[0:4], uint32(n))
	msg[4] = byte(h.Opcode)
	msg[5] = h.Flags &^ FlagInline
	binary.LittleEndian.PutUint16(msg[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(msg[8:16], h.RequestID)
	binary.LittleEndian.PutUint32(msg[28:32], ReplyMagic)
	if n > 0 && n <= ReplyInlineMax {
		msg[5] |= FlagInline
		copy(msg[16:], payload)
	} else if n > 0 {
		copy(msg[ReplyLine:], payload)
		binary.LittleEndian.PutUint32(msg[size-4:], ReplyMagic)
	}
	return msg
}

// TestReplyShapesByPayloadLength walks every reply payload length from
// nothing to 384 bytes. ReplyBuf.Finish emits exactly ReplyMessageSize
// bytes — the line alone up to 12, beyond it the line and the payload
// padded to 32-byte lines with its trailer — and they are the format's
// bytes; it flags a reply inline iff its payload rides in the line; the
// line's first 16 bytes are a request header's for the same fields; the
// reply decodes to the header and payload that went in, with no request
// field set; and in a warm buffer building and decoding a reply allocate
// nothing.
func TestReplyShapesByPayloadLength(t *testing.T) {
	if ReplyInlineMax != 12 || ReplyLine != 32 {
		t.Fatalf("ReplyInlineMax = %d: a 32-byte line less 16 field bytes and a 4-byte word leaves 12", ReplyInlineMax)
	}
	rng := rand.New(rand.NewSource(52))
	// The request fields are set so that a reply that sent them shows.
	hdr := Header{Opcode: OpGetReply, Flags: FlagPartial | FlagInline, RegionID: 3, RequestID: 99,
		ReplyOffset: 4096, ReplySize: 384, TraceID: 7, Tenant: 1, Priority: 1, SentAt: 12345}
	var rb ReplyBuf
	rb.Finish(Header{Opcode: OpGetReply}, bytes.Repeat([]byte{0xAB}, 8*ReplyLine)) // dirty
	for n := 0; n <= 384; n++ {
		want := make([]byte, n)
		rng.Read(want)
		inline := n > 0 && n <= ReplyInlineMax
		size := ReplyLine
		if n > ReplyInlineMax {
			size = ReplyLine + (n+4+ReplyLine-1)/ReplyLine*ReplyLine
		}
		if ReplyMessageSize(n) != size {
			t.Fatalf("ReplyMessageSize(%d) = %d, want %d", n, ReplyMessageSize(n), size)
		}
		payload := append(rb.Reserve(n), want...)
		msg := rb.Finish(hdr, payload)
		if len(msg) != size || !bytes.Equal(msg, replyReference(hdr, want)) {
			t.Fatalf("%d payload bytes: Finish emitted %d bytes, not the format's %d", n, len(msg), size)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%d payload bytes: Finish changed the payload it was handed", n)
		}
		if n > ReplyInlineMax && &payload[0] != &msg[ReplyLine] {
			t.Fatalf("%d payload bytes: the payload was not built in place", n)
		}
		req := make([]byte, HeaderSize)
		cut := hdr
		cut.PayloadSize, cut.Flags = uint32(n), msg[5]
		if err := EncodeHeader(req, cut); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg[:replyFields], req[:replyFields]) {
			t.Fatalf("%d payload bytes: the line's fields %x are not the request header's %x", n, msg[:replyFields], req[:replyFields])
		}
		h, p, err := DecodeReply(msg)
		if err != nil || !bytes.Equal(p, want) {
			t.Fatalf("%d payload bytes: decoded %d bytes, %v", n, len(p), err)
		}
		back := Header{PayloadSize: uint32(n), Opcode: hdr.Opcode, Flags: FlagPartial, RegionID: hdr.RegionID, RequestID: hdr.RequestID}
		if inline {
			back.Flags |= FlagInline
		}
		if h != back || h.Inline() != inline || h.ReplyWireSize() != size {
			t.Fatalf("%d payload bytes: header %+v (wire size %d), want %+v", n, h, h.ReplyWireSize(), back)
		}
		if lh, err := DecodeReplyHeader(msg); err != nil || lh != h {
			t.Fatalf("%d payload bytes: the line alone decodes to %+v, %v", n, lh, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			msg := rb.Finish(hdr, append(rb.Reserve(n), want...))
			if _, _, err := DecodeReply(msg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d payload bytes: building and decoding a reply allocates %v times", n, allocs)
		}
	}
}

// TestRepliesAndRequestsNeverPassForEachOther: a request is a 64-byte
// header and a reply a 32-byte line, each with its own rendezvous word,
// so a request written where a reply is polled for — in a reply slot,
// zeros behind it — fails with ErrBadMagic, and so does a reply in the
// request ring, at every payload length around both forms' inline limits
// (34 and 35, 26 and 27 for a traced request, 12 and 13), a reply line's
// 28 and 29 and a request line's 60 and 61, traced or not; each decodes
// in its own form.
func TestRepliesAndRequestsNeverPassForEachOther(t *testing.T) {
	if InlineMax != 34 || ReplyInlineMax != 12 || HeaderSize != 2*ReplyLine {
		t.Fatalf("InlineMax %d, ReplyInlineMax %d, lines of %d and %d bytes", InlineMax, ReplyInlineMax, HeaderSize, ReplyLine)
	}
	var mb MsgBuf
	var rb ReplyBuf
	for _, n := range []int{0, 1, 12, 13, 26, 27, 28, 29, 34, 35, 44, 45, 60, 61, 124, 125, 200, 384} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		for _, traceID := range []uint64{0, 5} {
			req := mb.Finish(Header{Opcode: OpPut, RegionID: 1, RequestID: 7, ReplySize: ReplyLine, TraceID: traceID}, payload)
			slot := make([]byte, len(req)+HeaderSize)
			copy(slot, req)
			if h, p, err := DecodeMessage(slot); err != nil || h.TraceID != traceID || !bytes.Equal(p, payload) {
				t.Fatalf("a request of %d payload bytes, trace %d, does not decode as one: %+v, %v", n, traceID, h, err)
			}
			if _, err := DecodeReplyHeader(slot); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("a request of %d payload bytes, trace %d, in a reply slot: DecodeReplyHeader %v", n, traceID, err)
			}
			if _, _, err := DecodeReply(slot); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("a request of %d payload bytes, trace %d, in a reply slot: DecodeReply %v", n, traceID, err)
			}
		}

		rep := rb.Finish(Header{Opcode: OpPutReply, RegionID: 1, RequestID: 7}, payload)
		ring := make([]byte, len(rep)+HeaderSize)
		copy(ring, rep)
		if _, _, err := DecodeReply(ring); err != nil {
			t.Fatalf("a reply of %d payload bytes does not decode as one: %v", n, err)
		}
		if _, err := DecodeHeader(ring); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("a reply of %d payload bytes in the request ring: DecodeHeader %v", n, err)
		}
		if _, _, err := DecodeMessage(ring); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("a reply of %d payload bytes in the request ring: DecodeMessage %v", n, err)
		}
	}
}

// TestReplyPayloadNotArrived: an out-of-line reply whose trailer has not
// landed is not a reply yet, and one cut short of its size is too short.
func TestReplyPayloadNotArrived(t *testing.T) {
	full := replyReference(Header{Opcode: OpGetReply, RequestID: 3}, bytes.Repeat([]byte{1}, 300))
	torn := append([]byte(nil), full...)
	clear(torn[len(torn)-4:])
	if _, _, err := DecodeReply(torn); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("a reply without its trailer: %v", err)
	}
	if _, _, err := DecodeReply(full[:len(full)-1]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("a reply cut short: %v", err)
	}
	if h, err := DecodeReplyHeader(torn); err != nil || h.ReplyWireSize() != len(full) {
		t.Fatalf("the line of a torn reply: %+v, %v", h, err)
	}
}

// TestReplyShapesOfTheProtocol pins the size of every reply the protocol
// sends. A status reply, an ack, a miss and an S get's reply (a 9-byte
// value behind its status byte) are one 32-byte line. A payload of 12
// bytes is the inline edge; 13 to 28 bytes take a second line, and 29 to
// 60 a third. So a payload of 29 to 44 bytes, inline in the 64-byte line
// before, grows from 64 to 96 bytes. No reply the benchmark sends is one
// — its replies are status bytes, gets of 9, 99 and 999 bytes and scans
// of 16 pairs — but a wrong-region reply is ("server: region not hosted
// here" and "server: not primary for region" are 30 bytes), and so is a
// get of a 28- to 43-byte value. An M get's reply is 160 bytes and an L
// get's 1 056, each 32 less than in the 64-byte-line form with a 9-byte
// prefix.
func TestReplyShapesOfTheProtocol(t *testing.T) {
	get := func(n int) int { return GetReply{Found: true, TotalSize: uint32(n), Value: make([]byte, n)}.Size() }
	for _, tc := range []struct {
		name          string
		payload, want int
	}{
		{"a status reply", StatusReply{}.Size(), 32},
		{"an ack", StatusReply{}.Size(), 32},
		{"a miss", GetReply{}.Size(), 32},
		{"an S get (9-byte value)", get(9), 32},
		{"a 12-byte payload", 12, 32},
		{"a 13-byte payload", 13, 64},
		{"a 28-byte payload", 28, 64},
		{"a 29-byte payload", 29, 96},
		{"a 44-byte payload", 44, 96},
		{"a 60-byte payload", 60, 96},
		{"a 61-byte payload", 61, 128},
		{"an M get (99-byte value)", get(99), 160},
		{"an L get (999-byte value)", get(999), 1056},
	} {
		if got := ReplyMessageSize(tc.payload); got != tc.want {
			t.Errorf("%s: a %d-byte payload is sent in %d bytes, want %d", tc.name, tc.payload, got, tc.want)
		}
		var rb ReplyBuf
		if got := len(rb.Finish(Header{Opcode: OpGetReply}, make([]byte, tc.payload))); got != tc.want {
			t.Errorf("%s: ReplyBuf.Finish emits %d bytes, want %d", tc.name, got, tc.want)
		}
	}
	// A partial reply carries its total and record behind its chunk.
	part := GetReply{Found: true, Partial: true, TotalSize: 70000, Value: make([]byte, 975), Record: 1<<40 | 5}
	if part.Size() != 1+975+PartialGetReplySuffix || ReplyMessageSize(part.Size()) != 1024 {
		t.Fatalf("a partial reply of a 975-byte chunk: %d bytes, sent in %d; want 988 in a 1 KB slot", part.Size(), ReplyMessageSize(part.Size()))
	}
	var rb ReplyBuf
	_, p, err := DecodeReply(rb.Finish(Header{Opcode: OpGetReply, Flags: FlagPartial}, part.Encode(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeGetReply(p); err != nil || !back.Partial || back.TotalSize != part.TotalSize || back.Record != part.Record || len(back.Value) != 975 {
		t.Fatalf("a partial reply decodes to %+v (%d value bytes), %v", back, len(back.Value), err)
	}
}

// TestOldReplyLineIsRefused: a reply in the 64-byte-line layout that came
// before — its fields at [0, 16), "TEBR" at [60, 64) — fails with
// ErrBadMagic, its line alone and whole, with a status inside it and with
// a payload behind it, so a reply of the other layout never passes for
// one.
func TestOldReplyLineIsRefused(t *testing.T) {
	const oldMagic = 0x54454252 // "TEBR"
	if ReplyMagic == oldMagic {
		t.Fatal("the reply line kept the 64-byte line's word")
	}
	for _, n := range []int{1, 44, 45, 300} {
		size := 64
		if n > 44 {
			size += (n + 4 + 63) / 64 * 64
		}
		old := make([]byte, size)
		binary.LittleEndian.PutUint32(old[0:4], uint32(n))
		old[4] = byte(OpPutReply)
		binary.LittleEndian.PutUint64(old[8:16], 7)
		binary.LittleEndian.PutUint32(old[60:64], oldMagic)
		if n <= 44 {
			old[5] = FlagInline
			copy(old[16:], bytes.Repeat([]byte{0x5a}, n))
		} else {
			copy(old[64:], bytes.Repeat([]byte{0x5a}, n))
			binary.LittleEndian.PutUint32(old[size-4:], oldMagic)
		}
		if _, err := DecodeReplyHeader(old); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("an old %d-byte reply's line: %v, want ErrBadMagic", size, err)
		}
		if _, _, err := DecodeReply(old); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("an old %d-byte reply: %v, want ErrBadMagic", size, err)
		}
		if ReplyArrived(old[ReplyLine-4 : ReplyLine]) {
			t.Fatalf("an old %d-byte reply's bytes hold the reply word where a poll looks", size)
		}
	}
}
