// Package wire defines the Tebis RDMA message format (§3.4).
//
// A message comes in one of two forms, laid out the same way. A fixed-size
// header starts with its fields and ends with a four-byte rendezvous word
// the receiver polls for; a payload follows it, padded to a multiple of
// the header's size, with the word again in its last four bytes so the
// receiver knows the whole message has arrived. A payload that fits the
// header's bytes between its fields and its word rides there instead
// (FlagInline): the message is the header alone, and the header's word is
// the whole arrival test. Decoders take both shapes; a MsgBuf or ReplyBuf
// picks the one to send.
//
// The request form is what a client writes into a server's ring and a
// primary sends a backup: a 64-byte header (HeaderSize) whose fields take
// bytes [0, 26), with Magic as its word, which leaves InlineMax = 34 bytes
// for a payload inside it — an S put of a 24-byte key and a 9-byte value.
// Because its sizes are multiples of the header size, the spinning thread
// only ever needs to zero the possible header locations after consuming a
// message. A sampled request (FlagTraced) carries its trace ID as the
// first TracePrefix bytes of its payload, not in a header field, so the
// other requests do not pay for it. A request payload spends no bytes on
// its last length: PayloadSize, which the header's word or the trailer
// word vouches for, says where it ends (payload.go).
//
// The reply form is what a server writes into a client's reply slot and a
// backup sends back as an ack: a 32-byte line (ReplyLine) holding the
// request header's first 16 bytes — payload size, opcode, flags, region
// and request ID, all a reply is read by — with ReplyMagic as its word,
// so a frame of one form never passes for the other. That leaves
// ReplyInlineMax = 12 bytes inside the line: a status, an ack, a miss and
// a get of a 9-byte value each travel as the line alone, and a longer
// payload follows it in 32-byte units. A request header counts the reply
// offset and the reply slot in these 32-byte lines.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	// HeaderSize is the request form's header size: one 64-byte line.
	HeaderSize = 64
	// Magic is the request form's rendezvous word ("TEBS"). The formats
	// that came before had their own words — "TEBQ" the line with 32 field
	// bytes, "TEBI" the 128-byte header — so a frame of either never
	// passes for a request.
	Magic = 0x54454253
	// InlineMax is the largest payload that rides inside a request
	// header, in the reserved bytes between its last field and its word —
	// a traced request's TracePrefix among them.
	InlineMax = HeaderSize - 4 - headerFields
	// TracePrefix is how many payload bytes a traced request's trace ID
	// takes, ahead of the payload proper.
	TracePrefix = 8

	// ReplyLine is the reply form's header size: one 32-byte line.
	ReplyLine = 32
	// ReplyMagic is the reply form's rendezvous word ("TEBA"). "TEBR" was
	// the word of the 64-byte reply line before it, so a reply in that
	// layout never passes for one.
	ReplyMagic = 0x54454241
	// ReplyInlineMax is the largest payload that rides inside a reply's
	// line, between its fields and its word.
	ReplyInlineMax = ReplyLine - 4 - replyFields

	// headerFields is how many leading request-header bytes the fields of
	// Header occupy: [0, 16) as a reply's line has them, the reply offset
	// and the reply slot in reply lines at [16, 18) and [18, 20), tenant and
	// priority at [20] and [21], SentAt's low 32 bits at [22, 26). The
	// bytes from there to the word hold an inline payload and are zero
	// otherwise. A field byte added here is taken from every inline
	// payload: the benchmark's S put fills InlineMax exactly.
	headerFields = 26
	// replyFields is how many leading bytes of a reply's line its fields
	// occupy: the request header's first 16, cut short there.
	replyFields = 16
	// replySizeUnit is the unit a request header counts ReplyOffset and
	// ReplySize in: reply slots are whole reply lines, at line offsets.
	replySizeUnit = ReplyLine
	// ReplyBufferMax is the largest reply buffer a request can address:
	// its ReplyOffset is a 16-bit count of 32-byte lines, 2 MiB.
	ReplyBufferMax = (0xFFFF + 1) * replySizeUnit
)

// form is one of the two message forms: the header's size, which is also
// the unit a payload is padded to, how many of its leading bytes carry
// fields, and its rendezvous word.
type form struct {
	unit, fields int
	magic        uint32
}

var (
	requestForm = form{unit: HeaderSize, fields: headerFields, magic: Magic}
	replyForm   = form{unit: ReplyLine, fields: replyFields, magic: ReplyMagic}
)

// request reports whether f is the request form: the one with fields
// past a reply's 16 bytes, and a trace prefix on a traced message.
func (f form) request() bool { return f.fields == headerFields }

// inlineMax is the largest payload that rides inside the header.
func (f form) inlineMax() int { return f.unit - 4 - f.fields }

// padded returns the on-wire size of a payload that follows the header:
// the payload and its trailer word, padded to a multiple of the unit.
func (f form) padded(payloadLen int) int {
	if payloadLen == 0 {
		return 0
	}
	return (payloadLen + 4 + f.unit - 1) / f.unit * f.unit
}

// outOfLine returns the size of a message whose payload follows the
// header.
func (f form) outOfLine(payloadLen int) int { return f.unit + f.padded(payloadLen) }

// sent returns the size of the message a buffer emits for a payload of
// the given length: the header alone up to inlineMax, outOfLine beyond.
func (f form) sent(payloadLen int) int {
	if payloadLen <= f.inlineMax() {
		return f.unit
	}
	return f.outOfLine(payloadLen)
}

// maxPayload returns the largest payload sent in a message of at most
// size bytes (size >= f.unit).
func (f form) maxPayload(size int) int {
	if size < 2*f.unit {
		return f.inlineMax()
	}
	return size/f.unit*f.unit - f.unit - 4
}

// prefix returns how many bytes ahead of its payload the message h heads
// carries: TracePrefix for a traced request, else none.
func (f form) prefix(h Header) int {
	if f.request() && h.Flags&FlagTraced != 0 {
		return TracePrefix
	}
	return 0
}

// shaped returns h as an encoder sends it out of line for a payload of
// payloadLen bytes: the flags that describe the message's shape set by
// the encoder, whatever the caller's Header says — FlagInline clear,
// FlagTraced on a request with a trace ID.
func (f form) shaped(h Header, payloadLen int) Header {
	h.PayloadSize = uint32(payloadLen)
	h.Flags &^= FlagInline | FlagTraced
	if f.request() && h.TraceID != 0 {
		h.Flags |= FlagTraced
	}
	return h
}

// wireSize returns the size of the message h heads, in the shape it
// arrived in.
func (f form) wireSize(h Header) int {
	if h.Inline() {
		return f.unit
	}
	return f.outOfLine(int(h.PayloadSize) + f.prefix(h))
}

// arrived reports whether word holds the form's rendezvous magic.
func (f form) arrived(word []byte) bool {
	return len(word) >= 4 && binary.LittleEndian.Uint32(word) == f.magic
}

// encodeHeader writes h into buf[0:f.unit]: the fields the form carries,
// zeros up to the word, and the word. A request's header carries
// ReplyOffset in lines (replyOffsetOK holds of it), ReplySize in whole
// lines (a slot is never less than what it names) and the low 32 bits of
// SentAt; its TraceID is no header field.
func (f form) encodeHeader(buf []byte, h Header) {
	clear(buf[:f.unit])
	binary.LittleEndian.PutUint32(buf[0:4], h.PayloadSize)
	buf[4] = byte(h.Opcode)
	buf[5] = h.Flags
	binary.LittleEndian.PutUint16(buf[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(buf[8:16], h.RequestID)
	if f.request() {
		binary.LittleEndian.PutUint16(buf[16:18], uint16(h.ReplyOffset/replySizeUnit))
		binary.LittleEndian.PutUint16(buf[18:20], uint16(min(h.ReplySize/replySizeUnit, 0xFFFF)))
		buf[20] = h.Tenant
		buf[21] = h.Priority
		binary.LittleEndian.PutUint32(buf[22:26], uint32(h.SentAt))
	}
	binary.LittleEndian.PutUint32(buf[f.unit-4:f.unit], f.magic)
}

// decodeHeader parses buf[0:f.unit]; it fails unless the form's word is
// there, and on a header that names no opcode or, flagged inline, claims
// more payload than the header holds. The trace ID of an inline traced
// request is read from the header's bytes; that of an out-of-line one is
// behind the header, and decode reads it.
func (f form) decodeHeader(buf []byte) (Header, error) {
	if len(buf) < f.unit {
		return Header{}, ErrShortBuffer
	}
	if !f.arrived(buf[f.unit-4 : f.unit]) {
		return Header{}, ErrBadMagic
	}
	h := Header{
		PayloadSize: binary.LittleEndian.Uint32(buf[0:4]),
		Opcode:      Op(buf[4]),
		Flags:       buf[5],
		RegionID:    binary.LittleEndian.Uint16(buf[6:8]),
		RequestID:   binary.LittleEndian.Uint64(buf[8:16]),
	}
	if f.request() {
		h.ReplyOffset = uint32(binary.LittleEndian.Uint16(buf[16:18])) * replySizeUnit
		h.ReplySize = uint32(binary.LittleEndian.Uint16(buf[18:20])) * replySizeUnit
		h.Tenant = buf[20]
		h.Priority = buf[21]
		h.SentAt = int64(binary.LittleEndian.Uint32(buf[22:26]))
	}
	pre := f.prefix(h)
	if h.Opcode == OpInvalid || (h.Inline() && int(h.PayloadSize)+pre > f.inlineMax()) {
		return Header{}, ErrBadHeader
	}
	if h.Inline() && pre > 0 {
		h.TraceID = binary.LittleEndian.Uint64(buf[f.fields:])
	}
	return h, nil
}

// decode parses a complete message of either shape at buf, returning the
// header and the unpadded payload (aliasing buf), a traced request's
// trace ID taken out of the payload's first bytes into the header. Of an
// inline message it reads the header and nothing behind it.
func (f form) decode(buf []byte) (Header, []byte, error) {
	h, err := f.decodeHeader(buf)
	if err != nil {
		return Header{}, nil, err
	}
	pre, n := f.prefix(h), int(h.PayloadSize)
	if h.Inline() {
		return h, buf[f.fields+pre : f.fields+pre+n], nil
	}
	end := f.outOfLine(pre + n)
	if len(buf) < end {
		return Header{}, nil, ErrShortBuffer
	}
	if end > f.unit && !f.arrived(buf[end-4:end]) {
		return Header{}, nil, ErrBadMagic
	}
	if pre > 0 {
		h.TraceID = binary.LittleEndian.Uint64(buf[f.unit:])
	}
	return h, buf[f.unit+pre : f.unit+pre+n], nil
}

// Op identifies a message type.
type Op uint8

// Client-server and server-server operations.
const (
	OpInvalid Op = iota

	// Client → server.
	OpPut
	OpDelete
	OpGet
	OpGetRest
	OpScan
	OpNoop

	// Server → client.
	OpPutReply
	OpDeleteReply
	OpGetReply
	OpScanReply
	OpNoopReply

	// Primary → backup control plane.
	OpFlushTail
	OpFlushTailAck
	OpIndexSegment
	OpIndexSegmentAck
	OpCompactionStart
	OpCompactionDone
	OpCompactionDoneAck
	OpGetBuffer
	OpGetBufferReply
	// 21 and 22 were the head-trim GC command and its ack, replaced by
	// OpGCRelease. The numbers stay reserved so later opcodes keep their
	// wire values; a backup answers them like any unknown opcode.
	_
	_
	OpSyncTail
	OpSyncTailAck
	// 25 to 30 were the scrub, segment-fetch and segment-repair commands
	// and their replies, deleted with the repair plane: a corrupt node is
	// failed over instead. Reserved like 21 and 22.
	_
	_
	_
	_
	_
	_

	// Value-log GC plane (DESIGN.md "Value-log GC"). After a cost-based GC
	// pass relocated a victim segment's live records and compacted every
	// stale index pointer away, the primary tells backups to free their
	// local copies of the victims (OpGCRelease).
	OpGCRelease
	OpGCReleaseAck
)

// String implements fmt.Stringer.
func (o Op) String() string {
	names := [...]string{
		"invalid", "put", "delete", "get", "get-rest", "scan", "noop",
		"put-reply", "delete-reply", "get-reply", "scan-reply", "noop-reply",
		"flush-tail", "flush-tail-ack", "index-segment", "index-segment-ack",
		"compaction-start", "compaction-done", "compaction-done-ack",
		"get-buffer", "get-buffer-reply", "reserved-21", "reserved-22",
		"sync-tail", "sync-tail-ack",
		"reserved-25", "reserved-26", "reserved-27", "reserved-28",
		"reserved-29", "reserved-30",
		"gc-release", "gc-release-ack",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Flags carried in the header.
const (
	// FlagPartial marks a get reply that did not fit the client's reply
	// slot; the client must fetch the rest with OpGetRest (§3.4.1). The
	// reply's status byte says so too (GetReply.Partial), for a reader of
	// the payload alone.
	FlagPartial = 1 << 0
	// FlagError marks a reply carrying an error string payload.
	FlagError = 1 << 1
	// FlagWrongRegion tells the client its region map is stale (§3.1).
	FlagWrongRegion = 1 << 2
	// Bit 3 is reserved: it is written as zero.
	// FlagOverload marks a reply shed by admission control (DESIGN.md
	// "Data path"): the server refused the request under overload, nothing
	// was applied, and the client should back off before retrying.
	FlagOverload = 1 << 4
	// FlagInline marks a message whose payload sits in the header's
	// bytes behind its fields — [26, 26+PayloadSize) of a request (behind
	// its trace prefix when it is traced), [16, 16+PayloadSize) of a
	// reply — and that ends with the header: no padded payload or trailer
	// word follows.
	// It describes the message's shape, so the encoders set and clear it
	// themselves whatever the caller's Header says.
	FlagInline = 1 << 5
	// FlagTraced marks a request whose payload starts with its TraceID:
	// TracePrefix bytes that PayloadSize does not count, ahead of the
	// payload proper. The encoders set it on a request with a trace ID and
	// clear it on every other message; the decoders take the prefix back
	// into Header.TraceID.
	FlagTraced = 1 << 6
)

// Header is a decoded message header. A reply carries the fields up to
// RequestID; the rest are request fields, zero in a decoded reply.
type Header struct {
	// PayloadSize is the unpadded payload length in bytes, a traced
	// request's TracePrefix not counted.
	PayloadSize uint32
	// Opcode identifies the message type.
	Opcode Op
	// Flags carries FlagPartial etc.
	Flags uint8
	// RegionID addresses the target region on the server.
	RegionID uint16
	// RequestID correlates replies with requests.
	RequestID uint64
	// ReplyOffset is where in the client's reply buffer the server must
	// RDMA-write the reply (client-managed allocation, §3.4.1). A request
	// header carries it in 32-byte reply lines, so it is a multiple of ReplyLine
	// below ReplyBufferMax; EncodeHeader refuses any other.
	ReplyOffset uint32
	// ReplySize is the size of the reply slot the client allocated. A
	// request header carries it in whole 32-byte reply lines, so it
	// decodes rounded down to one (and at most 0xFFFF lines, 2 MiB less a
	// line).
	ReplySize uint32
	// TraceID carries the request-scoped trace context: non-zero only
	// for sampled client operations, propagated so every hop (server
	// dispatch, primary apply, backup ship/ack) records spans under one
	// ID. It is no header field: a request that has one is sent
	// FlagTraced, with the ID as its payload's first TracePrefix bytes,
	// and the decoders put it back here. A reply never carries it.
	TraceID uint64
	// Tenant identifies the requesting tenant for per-tenant latency
	// attribution and admission control (DESIGN.md "Data path" and
	// "Observability"). 0 is the default tenant.
	Tenant uint8
	// SentAt is the client's send wall-clock in Unix nanoseconds,
	// stamped on every request (SentAt 0 = unstamped). A request header
	// carries its low 32 bits, so it decodes to those alone, and the
	// worker takes the wait from it modulo 2^32 ns — exact for any wait
	// under 4.29 s. The wait attributes the whole pre-service
	// time — ring, wire, spinning-thread detection, and worker queue — to
	// the dispatch stage, and feeds the admission controller's queue-wait
	// signal (DESIGN.md "Data path"). Meaningful only within one process
	// (shared clock).
	SentAt int64
	// Priority is the request's admission-control class. 0 is the
	// lowest class — the one admission control delays or sheds first
	// under overload; higher classes are never shed.
	Priority uint8
}

// Errors reported by the codec.
var (
	ErrShortBuffer = errors.New("wire: buffer too small")
	ErrBadMagic    = errors.New("wire: bad rendezvous magic")
	ErrBadHeader   = errors.New("wire: malformed header")
)

// PaddedPayloadSize returns the on-wire size of a request payload that
// follows its header: padded to a multiple of HeaderSize with room for
// the 4-byte end-of-payload rendezvous. A traced request's payload counts
// its TracePrefix.
func PaddedPayloadSize(payloadLen int) int { return requestForm.padded(payloadLen) }

// MessageSize returns the total size of a request whose payload of the
// given length follows the header — the out-of-line shape, which is what
// every payload over InlineMax is sent in. A traced request's payload
// counts its TracePrefix.
func MessageSize(payloadLen int) int { return requestForm.outOfLine(payloadLen) }

// SentSize returns the size of the request MsgBuf.Finish emits for a
// payload of the given length: the header alone up to InlineMax,
// MessageSize beyond. A traced request's payload counts its TracePrefix.
func SentSize(payloadLen int) int { return requestForm.sent(payloadLen) }

// ReplyMessageSize returns the size of the reply ReplyBuf.Finish emits
// for a payload of the given length: the line alone up to ReplyInlineMax,
// beyond it the line and the payload with its trailer word, padded to a
// multiple of ReplyLine. A reply slot sized by it holds that reply.
func ReplyMessageSize(payloadLen int) int { return replyForm.sent(payloadLen) }

// MaxPayload returns the largest payload a reply of at most size bytes
// carries (size >= ReplyLine) — what fits a client's reply slot, and what
// an error text is cut to when the slot it must land in is small.
func MaxPayload(size int) int { return replyForm.maxPayload(size) }

// Inline reports whether the message h heads carries its payload inside
// the header.
func (h Header) Inline() bool { return h.Flags&FlagInline != 0 }

// Traced reports whether the request h heads carries a trace prefix.
func (h Header) Traced() bool { return h.Flags&FlagTraced != 0 }

// WireSize returns the size of the request h heads, in the shape it
// arrived in.
func (h Header) WireSize() int { return requestForm.wireSize(h) }

// ReplyWireSize returns the size of the reply h heads, in the shape it
// arrived in.
func (h Header) ReplyWireSize() int { return replyForm.wireSize(h) }

// PayloadOffset returns where the payload proper of the out-of-line
// request h heads starts, from the start of the message: behind the
// header and, of a traced request, behind the trace ID there.
func (h Header) PayloadOffset() int { return HeaderSize + requestForm.prefix(h) }

// TraceIDAt returns the trace ID in the first TracePrefix bytes of an
// out-of-line traced request's payload, at h.PayloadOffset()-TracePrefix.
func TraceIDAt(prefix []byte) uint64 { return binary.LittleEndian.Uint64(prefix) }

// InlinePayload returns the payload of the inline request whose header
// bytes are hdr and decoded to h, a trace prefix left out. It aliases hdr.
func InlinePayload(hdr []byte, h Header) []byte {
	at := headerFields + requestForm.prefix(h)
	return hdr[at : at+int(h.PayloadSize)]
}

// ReplyInlinePayload returns the payload of the inline reply whose line
// is line and decoded to h. It aliases line.
func ReplyInlinePayload(line []byte, h Header) []byte {
	return line[replyFields : replyFields+int(h.PayloadSize)]
}

// EncodeHeader writes h into buf[0:HeaderSize] as a request header,
// including the rendezvous magic in the final four bytes. It writes the
// flags as h has them and no TraceID, which is no header field: the
// message encoders place a trace ID and flag it. A ReplyOffset the header
// cannot carry — not a whole number of lines, or past ReplyBufferMax — is
// ErrBadHeader.
func EncodeHeader(buf []byte, h Header) error {
	if len(buf) < HeaderSize {
		return ErrShortBuffer
	}
	if !replyOffsetOK(h.ReplyOffset) {
		return fmt.Errorf("%w: reply offset %d is not a line below %d", ErrBadHeader, h.ReplyOffset, ReplyBufferMax)
	}
	requestForm.encodeHeader(buf, h)
	return nil
}

// replyOffsetOK reports whether a request header carries the reply offset
// off: a whole number of 32-byte reply lines, below ReplyBufferMax.
func replyOffsetOK(off uint32) bool {
	return off%replySizeUnit == 0 && off < ReplyBufferMax
}

// DecodeHeader parses a request header at buf[0:HeaderSize]; it fails
// unless Magic is present, and on an inline header that claims more
// payload than a header holds. An out-of-line traced request's TraceID is
// behind the header (TraceIDAt) and decodes as 0 here.
func DecodeHeader(buf []byte) (Header, error) { return requestForm.decodeHeader(buf) }

// DecodeReplyHeader parses a reply's line at buf[0:ReplyLine]; it fails
// unless ReplyMagic is present, and on an inline line that claims more
// payload than a line holds. The request-only fields decode as zero.
func DecodeReplyHeader(buf []byte) (Header, error) { return replyForm.decodeHeader(buf) }

// MagicArrived reports whether word — the last four bytes of a request
// header slot or of a padded payload — holds Magic. A poller that reads
// a message where it landed checks the two words alone instead of
// copying the message out first.
func MagicArrived(word []byte) bool { return requestForm.arrived(word) }

// ReplyArrived is MagicArrived for a reply: whether word — the last four
// bytes of a reply's line or of its padded payload — holds ReplyMagic.
func ReplyArrived(word []byte) bool { return replyForm.arrived(word) }

// PayloadArrived reports whether the end-of-payload rendezvous magic for
// an out-of-line request with the given payload size — a trace prefix
// counted — is present (the spinning thread's second poll point).
// Messages without payload, and inline ones, are complete once the header
// is.
func PayloadArrived(buf []byte, payloadSize int) bool {
	padded := PaddedPayloadSize(payloadSize)
	if padded == 0 {
		return true
	}
	end := HeaderSize + padded
	return len(buf) >= end && MagicArrived(buf[end-4:end])
}

// EncodeMessage writes a complete out-of-line request (header, the trace
// prefix of a header with a TraceID, payload, padding and trailer magic)
// into buf and returns the total size. No product code sends through it
// — every sender builds in a MsgBuf, which also knows the inline shape;
// it is the reference the tests hold Finish to and what the benchmark
// ladder's wire rungs time.
func EncodeMessage(buf []byte, h Header, payload []byte) (int, error) {
	if !replyOffsetOK(h.ReplyOffset) {
		return 0, fmt.Errorf("%w: reply offset %d is not a line below %d", ErrBadHeader, h.ReplyOffset, ReplyBufferMax)
	}
	h = requestForm.shaped(h, len(payload))
	pre := requestForm.prefix(h)
	total := MessageSize(pre + len(payload))
	if len(buf) < total {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, total, len(buf))
	}
	copy(buf[HeaderSize+pre:], payload)
	requestForm.finishOutOfLine(buf[:total], h)
	return total, nil
}

// finishOutOfLine completes msg — exactly the out-of-line size of the
// message h heads, shaped, whose payload already sits behind the header
// and its prefix — by writing the header, the trace prefix, zeroing the
// padding up to the trailer, and writing the trailer word. Only the bytes
// around the payload are touched.
func (f form) finishOutOfLine(msg []byte, h Header) {
	f.encodeHeader(msg, h)
	pre := f.prefix(h)
	if pre > 0 {
		binary.LittleEndian.PutUint64(msg[f.unit:], h.TraceID)
	}
	if len(msg) > f.unit {
		clear(msg[f.unit+pre+int(h.PayloadSize) : len(msg)-4])
		binary.LittleEndian.PutUint32(msg[len(msg)-4:], f.magic)
	}
}

// frameBuf is the buffer behind a MsgBuf or a ReplyBuf; each method takes
// the form the message is built in. traced is where a traced request
// whose payload follows its header is built: its payload moves behind the
// trace ID, and where it was built stays as it is, for a retry.
type frameBuf struct {
	b, traced []byte
}

// room returns the buffer *b sized to total bytes, replacing it (contents
// and all) when it is too small.
func room(b *[]byte, total int) []byte {
	if cap(*b) < total {
		*b = make([]byte, total)
	}
	return (*b)[:total]
}

// reserve returns the empty position behind the header, with capacity
// for payloadLen payload bytes and the padding and trailer that follow.
func (m *frameBuf) reserve(f form, payloadLen int) []byte {
	msg := room(&m.b, f.outOfLine(payloadLen))
	return msg[f.unit:f.unit]
}

// finish builds the message around payload and returns it. A payload
// over the form's inline limit built on reserve's slice is already in
// place and is not copied; any other (an error text, a payload that
// outgrew its reservation, a traced request's) is copied in behind the
// header first. A payload that fits the header's reserved bytes — with a
// traced request's trace ID — is copied there instead, and the header is
// the message. Either way a payload copied stays where it was built, for
// a retry.
func (m *frameBuf) finish(f form, h Header, payload []byte) []byte {
	n := len(payload)
	h = f.shaped(h, n)
	pre := f.prefix(h)
	if n+pre > 0 && n+pre <= f.inlineMax() {
		h.Flags |= FlagInline
		msg := room(&m.b, f.unit)
		f.encodeHeader(msg, h)
		if pre > 0 {
			binary.LittleEndian.PutUint64(msg[f.fields:], h.TraceID)
		}
		copy(msg[f.fields+pre:], payload)
		return msg
	}
	var msg []byte
	if pre > 0 {
		msg = room(&m.traced, f.outOfLine(pre+n))
	} else {
		msg = room(&m.b, f.outOfLine(n))
	}
	if n > 0 && &payload[0] != &msg[f.unit+pre] {
		copy(msg[f.unit+pre:], payload)
	}
	f.finishOutOfLine(msg, h)
	return msg
}

// MsgBuf is a reusable buffer a sender builds its requests in, so that a
// message is encoded once, in memory that already exists:
//
//	payload := req.Encode(mb.Reserve(req.Size())) // behind the header slot
//	msg := mb.Finish(hdr, payload)                // header, padding, trailer
//
// msg aliases the buffer and is valid until the next Reserve or Finish;
// a one-sided write copies it into the peer's registered memory, so the
// buffer is free again when the write returns. Finishing the same
// payload again under another header (a retry) touches the header slot
// only. A payload of at most InlineMax bytes — a traced request's trace
// prefix counted — is moved into the header slot and msg is that slot
// alone (SentSize says which, beforehand). A traced request whose payload
// follows its header is built beside the payload, which stays where it
// was built. The zero value is ready to use; a MsgBuf serves one goroutine
// at a time.
type MsgBuf struct {
	frameBuf
}

// Reserve returns the empty position behind the header slot, with
// capacity for payloadLen payload bytes and the padding and trailer that
// follow them. Append the payload to it and hand the result to Finish.
func (m *MsgBuf) Reserve(payloadLen int) []byte { return m.reserve(requestForm, payloadLen) }

// Finish builds the request around payload and returns it: in place
// behind the header when the payload was built on Reserve's slice, inside
// the header when it is at most InlineMax bytes. A header with a TraceID
// is sent FlagTraced, the ID ahead of the payload. It panics on a
// ReplyOffset the header cannot carry (EncodeHeader's ErrBadHeader): a
// sender's reply slots are whole lines, so its offsets are too.
func (m *MsgBuf) Finish(h Header, payload []byte) []byte {
	if !replyOffsetOK(h.ReplyOffset) {
		panic(fmt.Sprintf("wire: reply offset %d is not a line below %d", h.ReplyOffset, ReplyBufferMax))
	}
	return m.finish(requestForm, h, payload)
}

// ReplyBuf is MsgBuf for replies: the same Reserve-then-Finish building,
// in the reply form — a 32-byte line, a payload of at most ReplyInlineMax
// bytes inside it, a longer one behind it (ReplyMessageSize says how
// long the reply is). The request-only fields of the Header handed to
// Finish are not sent.
type ReplyBuf struct {
	frameBuf
}

// Reserve returns the empty position behind the reply's line, with
// capacity for payloadLen payload bytes and what follows them.
func (m *ReplyBuf) Reserve(payloadLen int) []byte { return m.reserve(replyForm, payloadLen) }

// Finish builds the reply around payload and returns it.
func (m *ReplyBuf) Finish(h Header, payload []byte) []byte {
	return m.finish(replyForm, h, payload)
}

// DecodeMessage parses a complete request of either shape at buf,
// returning the header and the unpadded payload (aliasing buf), a trace
// prefix taken back into the header's TraceID. Of an inline message it
// reads the header and nothing behind it.
func DecodeMessage(buf []byte) (Header, []byte, error) { return requestForm.decode(buf) }

// DecodeReply parses a complete reply of either shape at buf, returning
// the header and the unpadded payload (aliasing buf). A request, whose
// word is not a reply's, fails with ErrBadMagic, as a reply does in
// DecodeMessage.
func DecodeReply(buf []byte) (Header, []byte, error) { return replyForm.decode(buf) }
