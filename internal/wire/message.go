// Package wire defines the Tebis RDMA message format (§3.4).
//
// Every message is a 128-byte header plus a variable-size payload padded
// to a multiple of the header size. The last four bytes of the header
// hold a rendezvous magic number the server's spinning thread polls for;
// a second rendezvous magic sits in the final four bytes of the padded
// payload so the detector knows the whole message has arrived. Because
// message sizes are multiples of the header size, the spinning thread
// only ever needs to zero the possible header locations after consuming
// a message.
//
// A payload of at most InlineMax bytes does not follow the header: it
// rides in the header's reserved bytes (FlagInline), the message is the
// header alone, and the header's rendezvous word is the whole arrival
// test. Decoders take both shapes; MsgBuf.Finish picks the one to send.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	// HeaderSize is the fixed message header size.
	HeaderSize = 128
	// Magic is the rendezvous magic number ("TEBI").
	Magic = 0x54454249
	// MinPayload pads every payload to at least this size: for small
	// messages the NIC packet rate is the bottleneck, so the paper's
	// protocol uses a 256 B minimum payload (§4).
	MinPayload = 256

	// headerFields is how many leading header bytes the fields of Header
	// occupy; the bytes from there to the rendezvous word are reserved.
	headerFields = 48
	// InlineMax is the largest payload that rides inside the header, in
	// the reserved bytes between the last field and the rendezvous word.
	InlineMax = HeaderSize - 4 - headerFields
)

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
	// slot; the client must fetch the rest with OpGetRest (§3.4.1).
	FlagPartial = 1 << 0
	// FlagError marks a reply carrying an error string payload.
	FlagError = 1 << 1
	// FlagWrongRegion tells the client its region map is stale (§3.1).
	FlagWrongRegion = 1 << 2
	// FlagWrongEpoch refines FlagWrongRegion: the server still hosts the
	// region but at a newer epoch (it was migrated), so the client must
	// refresh its map before retrying. Servers set it together with
	// FlagWrongRegion so old clients fall back to the same refresh path.
	FlagWrongEpoch = 1 << 3
	// FlagOverload marks a reply shed by admission control (DESIGN.md
	// "Data path"): the server refused the request under overload, nothing
	// was applied, and the client should back off before retrying.
	FlagOverload = 1 << 4
	// FlagInline marks a message whose payload sits in the header's
	// reserved bytes [headerFields, headerFields+PayloadSize) and that
	// ends with the header: no padded payload or trailer word follows.
	// It describes the message's shape, so the encoders set and clear it
	// themselves whatever the caller's Header says.
	FlagInline = 1 << 5
)

// Header is the decoded fixed-size message header.
type Header struct {
	// PayloadSize is the unpadded payload length in bytes.
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
	// RDMA-write the reply (client-managed allocation, §3.4.1).
	ReplyOffset uint32
	// ReplySize is the size of the reply slot the client allocated.
	ReplySize uint32
	// TraceID carries the request-scoped trace context: non-zero only
	// for sampled client operations, propagated so every hop (server
	// dispatch, primary apply, backup ship/ack) records spans under one
	// ID. It occupies header bytes previously reserved-as-zero, so old
	// encoders produce TraceID 0 (unsampled) and old decoders ignore the
	// field — forward and backward compatible by construction.
	TraceID uint64
	// Epoch is the region epoch the client routed with. Servers compare
	// it against the hosted region's epoch and reject mismatches with
	// FlagWrongEpoch, so a request routed with a pre-migration map can
	// never read or write a region its server no longer owns. Like
	// TraceID it lives in previously reserved-as-zero bytes; epoch 0
	// means "unchecked" (old encoders), preserving compatibility.
	Epoch uint32
	// Tenant identifies the requesting tenant for per-tenant latency
	// attribution and admission control (DESIGN.md "Data path" and
	// "Observability"). One previously reserved-as-zero byte: old encoders
	// produce tenant 0 (the default tenant), old decoders ignore it —
	// compatible by construction like TraceID and Epoch.
	Tenant uint8
	// SentAt is the client's send wall-clock in Unix nanoseconds,
	// stamped on every request (SentAt 0 = unstamped). The
	// worker subtracts it from its pickup time to attribute the whole
	// pre-service wait — ring, wire, spinning-thread detection, and
	// worker queue — to the dispatch stage, and to feed the admission
	// controller's queue-wait signal (DESIGN.md "Data path"). Meaningful only
	// within one process (shared clock); zero by construction for old
	// encoders.
	SentAt int64
	// Priority is the request's admission-control class. 0 (the old
	// encoders' implicit value) is the lowest class — the one admission
	// control delays or sheds first under overload; higher classes are
	// never shed.
	Priority uint8
}

// Errors reported by the codec.
var (
	ErrShortBuffer = errors.New("wire: buffer too small")
	ErrBadMagic    = errors.New("wire: bad rendezvous magic")
	ErrBadHeader   = errors.New("wire: malformed header")
)

// PaddedPayloadSize returns the on-wire payload size: padded to a
// multiple of HeaderSize with room for the 4-byte end-of-payload
// rendezvous, and at least MinPayload for non-empty payloads.
func PaddedPayloadSize(payloadLen int) int {
	if payloadLen == 0 {
		return 0
	}
	n := payloadLen + 4 // trailer magic
	if n < MinPayload {
		n = MinPayload
	}
	return (n + HeaderSize - 1) / HeaderSize * HeaderSize
}

// MessageSize returns the total size of a message whose payload of the
// given length follows the header — the out-of-line shape, which is what
// every payload over InlineMax is sent in and what a reply slot or a
// buffer that must hold either shape is sized by.
func MessageSize(payloadLen int) int {
	return HeaderSize + PaddedPayloadSize(payloadLen)
}

// SentSize returns the size of the message MsgBuf.Finish emits for a
// payload of the given length: the header alone up to InlineMax,
// MessageSize beyond.
func SentSize(payloadLen int) int {
	if payloadLen <= InlineMax {
		return HeaderSize
	}
	return MessageSize(payloadLen)
}

// MaxPayload returns the largest payload Finish can send in a message of
// at most size bytes (size >= HeaderSize) — what an error text is cut to
// when the slot it must land in is small.
func MaxPayload(size int) int {
	if size < HeaderSize+MinPayload {
		return InlineMax
	}
	return size/HeaderSize*HeaderSize - HeaderSize - 4
}

// Inline reports whether the message h heads carries its payload inside
// the header.
func (h Header) Inline() bool { return h.Flags&FlagInline != 0 }

// WireSize returns the size of the message h heads, in the shape it
// arrived in.
func (h Header) WireSize() int {
	if h.Inline() {
		return HeaderSize
	}
	return MessageSize(int(h.PayloadSize))
}

// InlinePayload returns the payload of the inline message whose header
// bytes are hdr and decoded to h. It aliases hdr.
func InlinePayload(hdr []byte, h Header) []byte {
	return hdr[headerFields : headerFields+int(h.PayloadSize)]
}

// EncodeHeader writes h into buf[0:HeaderSize], including the rendezvous
// magic in the final four bytes.
func EncodeHeader(buf []byte, h Header) error {
	if len(buf) < HeaderSize {
		return ErrShortBuffer
	}
	clear(buf[:HeaderSize])
	binary.LittleEndian.PutUint32(buf[0:4], h.PayloadSize)
	buf[4] = byte(h.Opcode)
	buf[5] = h.Flags
	binary.LittleEndian.PutUint16(buf[6:8], h.RegionID)
	binary.LittleEndian.PutUint64(buf[8:16], h.RequestID)
	binary.LittleEndian.PutUint32(buf[16:20], h.ReplyOffset)
	binary.LittleEndian.PutUint32(buf[20:24], h.ReplySize)
	binary.LittleEndian.PutUint64(buf[24:32], h.TraceID)
	binary.LittleEndian.PutUint32(buf[32:36], h.Epoch)
	buf[36] = h.Tenant
	buf[37] = h.Priority
	binary.LittleEndian.PutUint64(buf[40:48], uint64(h.SentAt))
	binary.LittleEndian.PutUint32(buf[HeaderSize-4:HeaderSize], Magic)
	return nil
}

// DecodeHeader parses buf[0:HeaderSize]; it fails unless the rendezvous
// magic is present, and on an inline header that claims more payload
// than a header holds.
func DecodeHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, ErrShortBuffer
	}
	if !MagicArrived(buf[HeaderSize-4 : HeaderSize]) {
		return Header{}, ErrBadMagic
	}
	h := Header{
		PayloadSize: binary.LittleEndian.Uint32(buf[0:4]),
		Opcode:      Op(buf[4]),
		Flags:       buf[5],
		RegionID:    binary.LittleEndian.Uint16(buf[6:8]),
		RequestID:   binary.LittleEndian.Uint64(buf[8:16]),
		ReplyOffset: binary.LittleEndian.Uint32(buf[16:20]),
		ReplySize:   binary.LittleEndian.Uint32(buf[20:24]),
		TraceID:     binary.LittleEndian.Uint64(buf[24:32]),
		Epoch:       binary.LittleEndian.Uint32(buf[32:36]),
		Tenant:      buf[36],
		Priority:    buf[37],
		SentAt:      int64(binary.LittleEndian.Uint64(buf[40:48])),
	}
	if h.Opcode == OpInvalid || (h.Inline() && h.PayloadSize > InlineMax) {
		return Header{}, ErrBadHeader
	}
	return h, nil
}

// MagicArrived reports whether word — the last four bytes of a header
// slot or of a padded payload — holds the rendezvous magic. A poller
// that reads a message where it landed checks the two words alone
// instead of copying the message out first.
func MagicArrived(word []byte) bool {
	return len(word) >= 4 && binary.LittleEndian.Uint32(word) == Magic
}

// PayloadArrived reports whether the end-of-payload rendezvous magic for
// an out-of-line message with the given payload size is present (the
// spinning thread's second poll point). Messages without payload, and
// inline ones, are complete once the header is.
func PayloadArrived(buf []byte, payloadSize int) bool {
	padded := PaddedPayloadSize(payloadSize)
	if padded == 0 {
		return true
	}
	end := HeaderSize + padded
	return len(buf) >= end && MagicArrived(buf[end-4:end])
}

// EncodeMessage writes a complete out-of-line message (header + payload +
// padding + trailer magic) into buf and returns the total size. No
// product code sends through it — every sender builds in a MsgBuf, which
// also knows the inline shape; it is the reference the tests hold Finish
// to and what the benchmark ladder's wire rungs time.
func EncodeMessage(buf []byte, h Header, payload []byte) (int, error) {
	total := MessageSize(len(payload))
	if len(buf) < total {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, total, len(buf))
	}
	copy(buf[HeaderSize:], payload)
	finishMessage(buf[:total], h, len(payload))
	return total, nil
}

// finishMessage completes msg — exactly MessageSize(payloadLen) bytes
// whose payload already sits behind the header slot — by writing the
// header, zeroing the padding up to the trailer, and writing the trailer
// magic. Only the bytes around the payload are touched.
func finishMessage(msg []byte, h Header, payloadLen int) {
	h.PayloadSize = uint32(payloadLen)
	h.Flags &^= FlagInline
	_ = EncodeHeader(msg, h) // msg holds at least a header
	if len(msg) > HeaderSize {
		clear(msg[HeaderSize+payloadLen : len(msg)-4])
		binary.LittleEndian.PutUint32(msg[len(msg)-4:], Magic)
	}
}

// MsgBuf is a reusable buffer a sender builds its messages in, so that a
// message is encoded once, in memory that already exists:
//
//	payload := req.Encode(mb.Reserve(req.Size())) // behind the header slot
//	msg := mb.Finish(hdr, payload)                // header, padding, trailer
//
// msg aliases the buffer and is valid until the next Reserve or Finish;
// a one-sided write copies it into the peer's registered memory, so the
// buffer is free again when the write returns. Finishing the same
// payload again under another header (a retry) touches the header slot
// only. A payload of at most InlineMax bytes is moved into the header
// slot and msg is that slot alone (SentSize says which, beforehand). The
// zero value is ready to use; a MsgBuf serves one goroutine at a time.
type MsgBuf struct {
	b []byte
}

// room returns the buffer sized to total bytes, replacing it (contents
// and all) when it is too small.
func (m *MsgBuf) room(total int) []byte {
	if cap(m.b) < total {
		m.b = make([]byte, total)
	}
	return m.b[:total]
}

// Reserve returns the empty position behind the header slot, with
// capacity for payloadLen payload bytes and the padding and trailer that
// follow them. Append the payload to it and hand the result to Finish.
func (m *MsgBuf) Reserve(payloadLen int) []byte {
	msg := m.room(MessageSize(payloadLen))
	return msg[HeaderSize:HeaderSize]
}

// Finish builds the message around payload and returns it. A payload
// over InlineMax built on Reserve's slice is already in place and is not
// copied; any other (an error text, a payload that outgrew its
// reservation) is copied in behind the header slot first. A payload that
// fits the header's reserved bytes is copied there instead — where it
// was built stays as it is, for a retry — and the header is the message.
func (m *MsgBuf) Finish(h Header, payload []byte) []byte {
	if n := len(payload); n > 0 && n <= InlineMax {
		msg := m.room(HeaderSize)
		h.PayloadSize = uint32(n)
		h.Flags |= FlagInline
		_ = EncodeHeader(msg, h) // msg is exactly a header
		copy(msg[headerFields:], payload)
		return msg
	}
	msg := m.room(MessageSize(len(payload)))
	if len(payload) > 0 && &payload[0] != &msg[HeaderSize] {
		copy(msg[HeaderSize:], payload)
	}
	finishMessage(msg, h, len(payload))
	return msg
}

// DecodeMessage parses a complete message of either shape at buf,
// returning the header and the unpadded payload (aliasing buf). Of an
// inline message it reads the header and nothing behind it.
func DecodeMessage(buf []byte) (Header, []byte, error) {
	h, err := DecodeHeader(buf)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Inline() {
		return h, InlinePayload(buf, h), nil
	}
	padded := PaddedPayloadSize(int(h.PayloadSize))
	if len(buf) < HeaderSize+padded {
		return Header{}, nil, ErrShortBuffer
	}
	if !PayloadArrived(buf, int(h.PayloadSize)) {
		return Header{}, nil, ErrBadMagic
	}
	return h, buf[HeaderSize : HeaderSize+int(h.PayloadSize)], nil
}
