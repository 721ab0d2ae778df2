package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// reference is the message MsgBuf.Finish must produce, built the long
// way: EncodeMessage for a payload that follows the header and, for one
// that rides inside it, the header with FlagInline, the payload in the
// reserved bytes, and nothing behind.
func reference(t testing.TB, h Header, payload []byte) []byte {
	t.Helper()
	n := len(payload)
	if n == 0 || n > InlineMax {
		want := make([]byte, MessageSize(n))
		if _, err := EncodeMessage(want, h, payload); err != nil {
			t.Fatal(err)
		}
		return want
	}
	h.PayloadSize, h.Flags = uint32(n), h.Flags|FlagInline
	want := make([]byte, HeaderSize)
	if err := EncodeHeader(want, h); err != nil {
		t.Fatal(err)
	}
	copy(want[headerFields:], payload)
	return want
}

// TestMessageShapesByPayloadLength walks every payload length from
// nothing to three headers' worth. Finish emits exactly SentSize bytes,
// which is the header alone up to InlineMax and MessageSize beyond; it
// flags a message inline iff its payload rides in the header; both
// shapes of every length — what Finish sent and what EncodeMessage, the
// out-of-line encoder, wrote — decode to the header and payload that
// went in; and finishing an inline payload in a warm buffer allocates
// nothing and leaves the payload where it was built, for a retry.
func TestMessageShapesByPayloadLength(t *testing.T) {
	if InlineMax != 76 {
		t.Fatalf("InlineMax = %d: the header layout leaves 76 reserved bytes", InlineMax)
	}
	rng := rand.New(rand.NewSource(23))
	hdr := Header{Opcode: OpPut, Flags: FlagPartial | FlagInline, RegionID: 3, RequestID: 99,
		ReplyOffset: 4096, ReplySize: 384, TraceID: 7, Epoch: 2, Tenant: 1, Priority: 1, SentAt: 12345}
	var mb MsgBuf
	mb.Finish(Header{Opcode: OpPut}, bytes.Repeat([]byte{0xAB}, 4*HeaderSize)) // dirty
	for n := 0; n <= 3*HeaderSize; n++ {
		want := make([]byte, n)
		rng.Read(want)
		inline := n > 0 && n <= InlineMax
		if got := SentSize(n) == HeaderSize; got != (n <= InlineMax) {
			t.Fatalf("SentSize(%d) = %d", n, SentSize(n))
		}
		payload := append(mb.Reserve(n), want...)
		msg := mb.Finish(hdr, payload)
		if len(msg) != SentSize(n) || !bytes.Equal(msg, reference(t, hdr, want)) {
			t.Fatalf("%d payload bytes: Finish emitted %d bytes, SentSize %d, or not the reference's", n, len(msg), SentSize(n))
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%d payload bytes: Finish changed the payload it was handed", n)
		}
		old := make([]byte, MessageSize(n))
		if _, err := EncodeMessage(old, hdr, want); err != nil {
			t.Fatal(err)
		}
		for shape, m := range map[string][]byte{"sent": msg, "out-of-line": old} {
			h, p, err := DecodeMessage(m)
			if err != nil || !bytes.Equal(p, want) {
				t.Fatalf("%d payload bytes, %s: decoded %d bytes, %v", n, shape, len(p), err)
			}
			if h.Inline() != (inline && shape == "sent") {
				t.Fatalf("%d payload bytes, %s: FlagInline = %v", n, shape, h.Inline())
			}
			if h.WireSize() != len(m) {
				t.Fatalf("%d payload bytes, %s: WireSize %d of a %d-byte message", n, shape, h.WireSize(), len(m))
			}
			back := hdr
			back.PayloadSize, back.Flags = uint32(n), h.Flags
			if h != back || h.Flags&^FlagInline != FlagPartial {
				t.Fatalf("%d payload bytes, %s: header %+v, sent %+v", n, shape, h, hdr)
			}
		}
		if inline {
			if allocs := testing.AllocsPerRun(20, func() { mb.Finish(hdr, append(mb.Reserve(n), want...)) }); allocs != 0 {
				t.Fatalf("%d payload bytes: finishing an inline message allocates %v times", n, allocs)
			}
		}
	}
}

// TestMaxPayloadIsTheLargestThatFits: for every reply slot size from one
// line up, a payload of MaxPayload bytes is sent in a reply the slot
// holds and one byte more is not.
func TestMaxPayloadIsTheLargestThatFits(t *testing.T) {
	for size := ReplyLine; size <= 16*ReplyLine; size++ {
		n := MaxPayload(size)
		if ReplyMessageSize(n) > size || ReplyMessageSize(n+1) <= size {
			t.Fatalf("MaxPayload(%d) = %d: replies of %d and %d bytes", size, n, ReplyMessageSize(n), ReplyMessageSize(n+1))
		}
	}
}

// TestInlineHeaderClaimingTooMuchIsMalformed: an inline header whose
// PayloadSize exceeds what its header holds is ErrBadHeader — for the
// header and the message decoder of either form — and a well-formed
// inline message decodes out of exactly its header's bytes: nothing
// behind the header is wanted, so nothing behind it is read, not even
// the trailer an older and longer message of its form left there.
func TestInlineHeaderClaimingTooMuchIsMalformed(t *testing.T) {
	for _, n := range []uint32{InlineMax + 1, HeaderSize, 1 << 31} {
		buf := make([]byte, HeaderSize, MessageSize(HeaderSize))
		if err := EncodeHeader(buf, Header{Opcode: OpPut, Flags: FlagInline, PayloadSize: n}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeHeader(buf); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("DecodeHeader of an inline header with %d payload bytes: %v", n, err)
		}
		if _, _, err := DecodeMessage(buf); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("DecodeMessage of an inline header with %d payload bytes: %v", n, err)
		}
	}
	for _, n := range []uint32{ReplyInlineMax + 1, ReplyLine, 1 << 31} {
		line := replyReference(Header{Opcode: OpGetReply}, nil)
		line[0], line[1], line[2], line[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		line[5] |= FlagInline
		if _, err := DecodeReplyHeader(line); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("DecodeReplyHeader of an inline line with %d payload bytes: %v", n, err)
		}
		if _, _, err := DecodeReply(line); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("DecodeReply of an inline line with %d payload bytes: %v", n, err)
		}
	}

	var mb MsgBuf
	text := bytes.Repeat([]byte("x"), InlineMax)
	msg := mb.Finish(Header{Opcode: OpPut}, text)
	exact := append(make([]byte, 0, HeaderSize), msg...)
	if _, p, err := DecodeMessage(exact); err != nil || !bytes.Equal(p, text) {
		t.Fatalf("an inline request alone in its buffer: %d bytes, %v", len(p), err)
	}
	stale := make([]byte, MessageSize(200))
	if _, err := EncodeMessage(stale, Header{Opcode: OpPut}, bytes.Repeat([]byte("y"), 200)); err != nil {
		t.Fatal(err)
	}
	copy(stale, msg)
	if _, p, err := DecodeMessage(stale); err != nil || !bytes.Equal(p, text) {
		t.Fatalf("an inline request over a stale longer one: %d bytes, %v", len(p), err)
	}

	var rb ReplyBuf
	text = text[:ReplyInlineMax]
	reply := rb.Finish(Header{Opcode: OpGetReply}, text)
	exact = append(make([]byte, 0, ReplyLine), reply...)
	if _, p, err := DecodeReply(exact); err != nil || !bytes.Equal(p, text) {
		t.Fatalf("an inline reply alone in its buffer: %d bytes, %v", len(p), err)
	}
	stale = replyReference(Header{Opcode: OpGetReply}, bytes.Repeat([]byte("y"), 200))
	copy(stale, reply)
	if _, p, err := DecodeReply(stale); err != nil || !bytes.Equal(p, text) {
		t.Fatalf("an inline reply over a stale longer one: %d bytes, %v", len(p), err)
	}
}

// TestInlineFrameCompat pins the argument for the inline shape of a
// request (mirroring TestTraceIDFrameCompat): a small payload sent out of
// line — reserved bytes zero, FlagInline clear, one header slot and one
// payload slot since payloads have no minimum size — decodes, and the
// inline frame differs from that frame's header only in the flag bit and
// in bytes that are reserved-as-zero there, so a decoder finds the same
// payload in both.
func TestInlineFrameCompat(t *testing.T) {
	h := Header{Opcode: OpPut, RegionID: 11, RequestID: 0xfeedface, ReplyOffset: 2048, ReplySize: 384, Epoch: 9}
	put := PutReq{Key: []byte("user000042"), Value: []byte("value-bytes")}.Encode(nil)

	old := make([]byte, MessageSize(len(put)))
	if _, err := EncodeMessage(old, h, put); err != nil {
		t.Fatal(err)
	}
	if len(old) != 2*HeaderSize || old[5]&FlagInline != 0 || !bytes.Equal(old[headerFields:HeaderSize-4], make([]byte, InlineMax)) {
		t.Fatalf("the out-of-line frame changed: %d bytes, flags %#x", len(old), old[5])
	}
	oh, op, err := DecodeMessage(old)
	if err != nil || oh.Inline() || !bytes.Equal(op, put) {
		t.Fatalf("old frame decode = %+v, %d payload bytes, %v", oh, len(op), err)
	}

	var mb MsgBuf
	neu := mb.Finish(h, put)
	nh, np, err := DecodeMessage(neu)
	if err != nil || !nh.Inline() || !bytes.Equal(np, put) {
		t.Fatalf("inline frame decode = %+v, %d payload bytes, %v", nh, len(np), err)
	}
	for i := range neu {
		if i >= headerFields && i < HeaderSize-4 {
			continue
		}
		if d := neu[i] ^ old[i]; d != 0 && (i != 5 || d != FlagInline) {
			t.Fatalf("inline frame differs from the old frame's header at byte %d (%#x vs %#x)", i, neu[i], old[i])
		}
	}
	nh.Flags &^= FlagInline
	if nh != oh {
		t.Fatalf("inline header %+v, old header %+v", nh, oh)
	}
}
