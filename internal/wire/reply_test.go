package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// replyReference is the reply ReplyBuf.Finish must produce, written out
// byte by byte from the format: a 64-byte line with the payload size,
// opcode, flags, region and request ID in [0, 16) and ReplyMagic in
// [60, 64); a payload of 1 to 44 bytes in [16, 60) under FlagInline, a
// longer one behind the line, padded to a multiple of 64 bytes whose last
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
	binary.LittleEndian.PutUint32(msg[60:64], ReplyMagic)
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
// bytes — the line alone up to 44, beyond it the line and the payload
// padded to 64-byte lines with its trailer — and they are the format's
// bytes; it flags a reply inline iff its payload rides in the line; the
// line's first 16 bytes are a request header's for the same fields; the
// reply decodes to the header and payload that went in, with no request
// field set; and in a warm buffer building and decoding a reply allocate
// nothing.
func TestReplyShapesByPayloadLength(t *testing.T) {
	if ReplyInlineMax != 44 {
		t.Fatalf("ReplyInlineMax = %d: a 64-byte line less 16 field bytes and a 4-byte word leaves 44", ReplyInlineMax)
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

// TestRepliesAndRequestsNeverPassForEachOther: both forms are 64-byte
// lines, each with its own rendezvous word, so a request written where a
// reply is polled for — in a reply slot, zeros behind it — fails with
// ErrBadMagic, and so does a reply in the request ring, at every payload
// length around both forms' inline limits (28 and 29, 20 and 21 for a
// traced request, 44 and 45, and a line's 60 and 61), traced or not; each
// decodes in its own form.
func TestRepliesAndRequestsNeverPassForEachOther(t *testing.T) {
	if InlineMax != 28 || ReplyInlineMax != 44 || HeaderSize != ReplyLine {
		t.Fatalf("InlineMax %d, ReplyInlineMax %d, lines of %d and %d bytes", InlineMax, ReplyInlineMax, HeaderSize, ReplyLine)
	}
	var mb MsgBuf
	var rb ReplyBuf
	for _, n := range []int{0, 1, 20, 21, 28, 29, 44, 45, 60, 61, 124, 125, 200, 384} {
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
