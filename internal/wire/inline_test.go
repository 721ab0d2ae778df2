package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// reference is the request MsgBuf.Finish must produce, written out byte
// by byte from the format: a 64-byte header with the payload size,
// opcode, flags, region and request ID in [0, 16) — a reply's line's
// first 16 bytes — the reply offset in 32-byte reply lines in [16, 18),
// the reply slot in reply lines in [18, 20), tenant and priority in [20] and [21],
// the low 32 bits of SentAt in [22, 26), and Magic in [60, 64). A request
// with a trace ID is flagged FlagTraced and carries the ID in the 8 bytes
// ahead of its payload. A payload that fits [26, 60) with its prefix
// rides there under FlagInline; a longer one follows the header, padded
// to 64-byte lines whose last four hold Magic again.
func reference(h Header, payload []byte) []byte {
	n, pre := len(payload), 0
	flags := h.Flags &^ (FlagInline | FlagTraced)
	if h.TraceID != 0 {
		pre, flags = 8, flags|FlagTraced
	}
	size, at := 64, 64
	switch w := n + pre; {
	case w > 0 && w <= 34:
		flags |= FlagInline
		at = 26
	case w > 0:
		size += (w + 4 + 63) / 64 * 64
	}
	msg := make([]byte, size)
	binary.LittleEndian.PutUint32(msg[0:4], uint32(n))
	msg[4] = byte(h.Opcode)
	msg[5] = flags
	binary.LittleEndian.PutUint16(msg[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(msg[8:16], h.RequestID)
	binary.LittleEndian.PutUint16(msg[16:18], uint16(h.ReplyOffset/32))
	binary.LittleEndian.PutUint16(msg[18:20], uint16(h.ReplySize/32))
	msg[20], msg[21] = h.Tenant, h.Priority
	binary.LittleEndian.PutUint32(msg[22:26], uint32(h.SentAt))
	binary.LittleEndian.PutUint32(msg[60:64], Magic)
	if pre > 0 {
		binary.LittleEndian.PutUint64(msg[at:], h.TraceID)
	}
	copy(msg[at+pre:], payload)
	if size > 64 {
		binary.LittleEndian.PutUint32(msg[size-4:], Magic)
	}
	return msg
}

// TestRequestShapesByPayloadLength walks every request payload length
// from nothing to 384 bytes, untraced and traced. The header's fields fill
// 26 bytes, so InlineMax is 34 — a put of a 24-byte key and a 9-byte
// value — and a field byte added would take a line's worth from such a
// put. Finish emits
// exactly SentSize bytes of the payload and its trace prefix — the header
// alone up to InlineMax, MessageSize beyond — and they are the format's
// bytes, field by field; it flags a request inline iff its payload rides
// in the header and traced iff it has a trace ID; an untraced payload
// behind the header is built in place, and every payload is left where
// it was built, for a retry. Both shapes of every length — what Finish
// sent and what EncodeMessage, the out-of-line encoder, wrote — decode to
// the header, trace ID and payload that went in, the header alone to the
// same fields; and in a warm buffer building and decoding a request
// allocate nothing.
func TestRequestShapesByPayloadLength(t *testing.T) {
	if InlineMax != 34 || headerFields != 26 || HeaderSize != 64 {
		t.Fatalf("InlineMax = %d with %d field bytes in a %d-byte header: a 64-byte line less 26 field bytes and a 4-byte word leaves 34",
			InlineMax, headerFields, HeaderSize)
	}
	rng := rand.New(rand.NewSource(53))
	var mb MsgBuf
	mb.Finish(Header{Opcode: OpPut}, bytes.Repeat([]byte{0xAB}, 8*HeaderSize)) // dirty
	mb.Finish(Header{Opcode: OpPut, TraceID: 1}, bytes.Repeat([]byte{0xAB}, 8*HeaderSize))
	for _, traceID := range []uint64{0, 0x1122334455667788} {
		hdr := Header{Opcode: OpPut, Flags: FlagPartial | FlagInline | FlagTraced, RegionID: 3, RequestID: 99,
			ReplyOffset: 4096, ReplySize: 384, TraceID: traceID, Tenant: 1, Priority: 1, SentAt: 12345}
		pre := 0
		if traceID != 0 {
			pre = TracePrefix
		}
		for n := 0; n <= 384; n++ {
			want := make([]byte, n)
			rng.Read(want)
			inline := n+pre > 0 && n+pre <= InlineMax
			ref := reference(hdr, want)
			if SentSize(n+pre) != len(ref) {
				t.Fatalf("%d payload bytes, trace %#x: SentSize(%d) = %d, the format's %d", n, traceID, n+pre, SentSize(n+pre), len(ref))
			}
			payload := append(mb.Reserve(n), want...)
			msg := mb.Finish(hdr, payload)
			if !bytes.Equal(msg, ref) {
				t.Fatalf("%d payload bytes, trace %#x: Finish emitted %d bytes, not the format's %d\n got %x\nwant %x", n, traceID, len(msg), len(ref), msg, ref)
			}
			if !bytes.Equal(payload, want) {
				t.Fatalf("%d payload bytes, trace %#x: Finish changed the payload it was handed", n, traceID)
			}
			if !inline && n > 0 && pre == 0 && &payload[0] != &msg[HeaderSize] {
				t.Fatalf("%d payload bytes: the payload was not built in place", n)
			}
			old := make([]byte, MessageSize(n+pre))
			if _, err := EncodeMessage(old, hdr, want); err != nil {
				t.Fatal(err)
			}
			for shape, m := range map[string][]byte{"sent": msg, "out-of-line": old} {
				h, p, err := DecodeMessage(m)
				if err != nil || !bytes.Equal(p, want) {
					t.Fatalf("%d payload bytes, trace %#x, %s: decoded %d bytes, %v", n, traceID, shape, len(p), err)
				}
				isInline := inline && shape == "sent"
				if h.Inline() != isInline || h.Traced() != (traceID != 0) {
					t.Fatalf("%d payload bytes, trace %#x, %s: flags %#x", n, traceID, shape, h.Flags)
				}
				if h.WireSize() != len(m) {
					t.Fatalf("%d payload bytes, trace %#x, %s: WireSize %d of a %d-byte message", n, traceID, shape, h.WireSize(), len(m))
				}
				back := hdr
				back.PayloadSize, back.Flags = uint32(n), h.Flags
				if h != back || h.Flags&^(FlagInline|FlagTraced) != FlagPartial {
					t.Fatalf("%d payload bytes, trace %#x, %s: header %+v, sent %+v", n, traceID, shape, h, hdr)
				}
				// The header alone: the trace ID of an out-of-line request is
				// behind it, at PayloadOffset less the prefix.
				hh, err := DecodeHeader(m)
				if !isInline && traceID != 0 {
					back.TraceID = 0
					if off := hh.PayloadOffset(); off != HeaderSize+TracePrefix || TraceIDAt(m[HeaderSize:off]) != traceID {
						t.Fatalf("%d payload bytes, %s: payload at %d, trace ID %#x", n, shape, off, TraceIDAt(m[HeaderSize:]))
					}
				}
				if err != nil || hh != back {
					t.Fatalf("%d payload bytes, trace %#x, %s: the header alone decodes to %+v, %v", n, traceID, shape, hh, err)
				}
				if isInline && !bytes.Equal(InlinePayload(m, hh), want) {
					t.Fatalf("%d payload bytes, trace %#x: InlinePayload %x", n, traceID, InlinePayload(m, hh))
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				msg := mb.Finish(hdr, append(mb.Reserve(n), want...))
				if _, _, err := DecodeMessage(msg); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%d payload bytes, trace %#x: building and decoding a request allocates %v times", n, traceID, allocs)
			}
		}
	}
}

// TestRequestHeaderFieldWidths: a request header's fields take 26 bytes,
// which leaves InlineMax = 34 — exactly the benchmark's S put, a 24-byte
// key and a 9-byte value behind a one-byte key length, so a field byte
// added sends that put out of line. The header carries ReplySize in whole
// 32-byte reply lines — rounded down, so the server never writes past a
// slot, and capped at 0xFFFF lines — ReplyOffset in lines too, refusing
// one that is no whole line or lies past ReplyBufferMax (2 MiB), and
// SentAt's low 32 bits.
func TestRequestHeaderFieldWidths(t *testing.T) {
	if headerFields != 26 || InlineMax != 34 {
		t.Fatalf("%d field bytes, InlineMax %d; want 26 and 34", headerFields, InlineMax)
	}
	sPut := PutReq{Key: []byte("user6284781860667377211x"), Value: []byte("012345678")}
	if len(sPut.Key) != 24 || len(sPut.Value) != 9 || sPut.Size() != InlineMax || SentSize(sPut.Size()) != HeaderSize {
		t.Fatalf("an S put of a %d-byte key and a %d-byte value is %d bytes, sent in %d; want InlineMax (%d) in one line",
			len(sPut.Key), len(sPut.Value), sPut.Size(), SentSize(sPut.Size()), InlineMax)
	}
	for _, tc := range []struct{ size, want uint32 }{
		{0, 0}, {31, 0}, {32, 32}, {63, 32}, {1024, 1024}, {256 << 10, 256 << 10},
		{0xFFFF * 32, 0xFFFF * 32}, {2 << 20, 0xFFFF * 32}, {1 << 31, 0xFFFF * 32},
	} {
		buf := make([]byte, HeaderSize)
		if err := EncodeHeader(buf, Header{Opcode: OpGet, ReplySize: tc.size, SentAt: 7<<32 | 12345}); err != nil {
			t.Fatal(err)
		}
		h, err := DecodeHeader(buf)
		if err != nil || h.ReplySize != tc.want || h.SentAt != 12345 {
			t.Fatalf("ReplySize %d decodes to %d, SentAt to %d (%v); want %d and 12345", tc.size, h.ReplySize, h.SentAt, err, tc.want)
		}
	}
	if ReplyBufferMax != 2<<20 {
		t.Fatalf("ReplyBufferMax = %d, want 2 MiB: 0x10000 reply lines of 32 bytes", ReplyBufferMax)
	}
	for _, off := range []uint32{0, 32, 4096, 256<<10 - 32, ReplyBufferMax - 32} {
		buf := make([]byte, HeaderSize)
		if err := EncodeHeader(buf, Header{Opcode: OpGet, ReplyOffset: off}); err != nil {
			t.Fatalf("ReplyOffset %d: %v", off, err)
		}
		if h, err := DecodeHeader(buf); err != nil || h.ReplyOffset != off {
			t.Fatalf("ReplyOffset %d decodes to %d, %v", off, h.ReplyOffset, err)
		}
	}
	for _, off := range []uint32{1, 31, 100, 4096 + 16, ReplyBufferMax, 1 << 31} {
		h := Header{Opcode: OpGet, ReplyOffset: off}
		if err := EncodeHeader(make([]byte, HeaderSize), h); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("EncodeHeader with ReplyOffset %d: %v", off, err)
		}
		if _, err := EncodeMessage(make([]byte, MessageSize(1)), h, []byte{1}); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("EncodeMessage with ReplyOffset %d: %v", off, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MsgBuf.Finish with ReplyOffset %d did not refuse it", off)
				}
			}()
			var mb MsgBuf
			mb.Finish(h, nil)
		}()
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
// PayloadSize exceeds what its header holds — with a traced request's
// prefix — is ErrBadHeader, for the header and the message decoder of
// either form, and a well-formed
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
	for _, n := range []uint32{InlineMax - TracePrefix + 1, InlineMax} {
		buf := make([]byte, HeaderSize)
		if err := EncodeHeader(buf, Header{Opcode: OpGet, Flags: FlagInline | FlagTraced, PayloadSize: n}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeMessage(buf); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("DecodeMessage of a traced inline header with %d payload bytes: %v", n, err)
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
	text := bytes.Repeat([]byte("x"), max(InlineMax, ReplyInlineMax))
	msg := mb.Finish(Header{Opcode: OpPut}, text[:InlineMax])
	exact := append(make([]byte, 0, HeaderSize), msg...)
	if _, p, err := DecodeMessage(exact); err != nil || !bytes.Equal(p, text[:InlineMax]) {
		t.Fatalf("an inline request alone in its buffer: %d bytes, %v", len(p), err)
	}
	stale := make([]byte, MessageSize(200))
	if _, err := EncodeMessage(stale, Header{Opcode: OpPut}, bytes.Repeat([]byte("y"), 200)); err != nil {
		t.Fatal(err)
	}
	copy(stale, msg)
	if _, p, err := DecodeMessage(stale); err != nil || !bytes.Equal(p, text[:InlineMax]) {
		t.Fatalf("an inline request over a stale longer one: %d bytes, %v", len(p), err)
	}

	var rb ReplyBuf
	reply := rb.Finish(Header{Opcode: OpGetReply}, text[:ReplyInlineMax])
	exact = append(make([]byte, 0, ReplyLine), reply...)
	if _, p, err := DecodeReply(exact); err != nil || !bytes.Equal(p, text[:ReplyInlineMax]) {
		t.Fatalf("an inline reply alone in its buffer: %d bytes, %v", len(p), err)
	}
	stale = replyReference(Header{Opcode: OpGetReply}, bytes.Repeat([]byte("y"), 200))
	copy(stale, reply)
	if _, p, err := DecodeReply(stale); err != nil || !bytes.Equal(p, text[:ReplyInlineMax]) {
		t.Fatalf("an inline reply over a stale longer one: %d bytes, %v", len(p), err)
	}
}

// TestInlineFrameCompat pins the argument for the inline shape of a
// request: a small payload sent out of line — reserved bytes zero,
// FlagInline clear, one header line and one payload line since payloads
// have no minimum size — decodes, and the inline frame differs from that
// frame's header only in the flag bit and in bytes that are
// reserved-as-zero there, so a decoder finds the same payload in both.
// (The premise is the 64-byte header's with 26 field bytes now: a put
// of 34 bytes, not one of 35, is what fits.)
func TestInlineFrameCompat(t *testing.T) {
	h := Header{Opcode: OpPut, RegionID: 11, RequestID: 0xfeedface, ReplyOffset: 2048, ReplySize: 384}
	put := PutReq{Key: []byte("user000042"), Value: []byte("v1")}.Encode(nil)

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
