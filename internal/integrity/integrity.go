// Package integrity defines the checksummed segment frame shared by the
// value log and the btree builder (DESIGN.md "Storage integrity").
//
// A framed segment carries a fixed-size trailer in the final TrailerSize
// bytes of the segment image:
//
//	[magic u32][kind u8 | payloadLen u24][seq u32][crc32c u32]   (little-endian)
//
// The payload occupies [0, payloadLen) and the CRC-32C (Castagnoli)
// covers the payload followed by the first 12 trailer bytes, so a torn
// write that clips any part of the trailer — including just the
// sequence number — fails verification; the CRC field is last because
// it is the commit point. The trailer sits at a fixed position — the
// end of the segment — so a reader can locate it knowing only the
// segment size, and the payload region of two devices' copies of the
// same logical segment is byte-comparable even though each device
// stamps its own trailer (kind and payload length match; seq is
// device-local).
//
// The magic value is chosen so that a value-log scan which walks into
// the trailer reads it as an impossible record and terminates: its first
// byte (0xA1) marks a long record header, whose key length — the first
// four bytes read big-endian without that bit, 0x215EB17E — exceeds any
// framed segment.
package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// TrailerSize is the number of bytes the frame trailer occupies at the
// end of every framed segment.
const TrailerSize = 16

// FrameMagic marks a framed segment. See the package comment for why
// this value doubles as a log-scan terminator.
const FrameMagic uint32 = 0x7EB15EA1

// Kind classifies the payload of a framed segment so recovery can tell
// value-log segments from index segments without replaying content.
type Kind uint8

// Frame kinds. KindOpaque is stamped on writes that did not declare a
// kind; the payload is still checksummed but recovery treats the
// segment as unclassified.
const (
	KindOpaque Kind = 0
	KindLog    Kind = 1
	KindIndex  Kind = 2
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindOpaque:
		return "opaque"
	case KindLog:
		return "log"
	case KindIndex:
		return "index"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame decode errors.
var (
	// ErrNoFrame reports that the trailer region does not carry the
	// frame magic: the segment was never sealed with a frame (fresh,
	// torn before the trailer write, or written by an unframed device).
	ErrNoFrame = errors.New("integrity: segment is not framed")
	// ErrBadFrame reports a trailer whose magic matched but whose
	// fields are impossible (payload length beyond the segment).
	ErrBadFrame = errors.New("integrity: malformed frame trailer")
)

// castagnoli is the CRC-32C table; crc32.MakeTable memoises it, so the
// package-level var just avoids the map lookup per call.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Capacity returns the usable payload bytes of a framed segment of the
// given size.
func Capacity(segSize int64) int64 {
	return segSize - TrailerSize
}

// Trailer is the decoded frame trailer.
type Trailer struct {
	Kind       Kind
	PayloadLen uint32
	CRC        uint32
	Seq        uint32
}

// head encodes the first 12 trailer bytes (everything but the CRC).
func (t Trailer) head() [TrailerSize - 4]byte {
	var h [TrailerSize - 4]byte
	binary.LittleEndian.PutUint32(h[0:4], FrameMagic)
	binary.LittleEndian.PutUint32(h[4:8], uint32(t.Kind)<<24|t.PayloadLen&0xFFFFFF)
	binary.LittleEndian.PutUint32(h[8:12], t.Seq)
	return h
}

// FrameChecksum returns the CRC a frame must store for the given
// payload and trailer fields (Kind, PayloadLen, Seq; the CRC field
// itself is excluded).
func FrameChecksum(payload []byte, t Trailer) uint32 {
	crc := crc32.Update(0, castagnoli, payload)
	h := t.head()
	return crc32.Update(crc, castagnoli, h[:])
}

// EncodeTrailer writes t into dst, which must be at least TrailerSize
// bytes.
func EncodeTrailer(dst []byte, t Trailer) {
	_ = dst[TrailerSize-1]
	h := t.head()
	copy(dst, h[:])
	binary.LittleEndian.PutUint32(dst[12:16], t.CRC)
}

// DecodeTrailer parses the trailer stored in p (at least TrailerSize
// bytes, the final bytes of a segment image). segSize bounds the
// payload length; pass 0 to skip the bound.
func DecodeTrailer(p []byte, segSize int64) (Trailer, error) {
	if len(p) < TrailerSize {
		return Trailer{}, fmt.Errorf("%w: %d-byte trailer region", ErrBadFrame, len(p))
	}
	if binary.LittleEndian.Uint32(p[0:4]) != FrameMagic {
		return Trailer{}, ErrNoFrame
	}
	lk := binary.LittleEndian.Uint32(p[4:8])
	t := Trailer{
		Kind:       Kind(lk >> 24),
		PayloadLen: lk & 0xFFFFFF,
		Seq:        binary.LittleEndian.Uint32(p[8:12]),
		CRC:        binary.LittleEndian.Uint32(p[12:16]),
	}
	if segSize > 0 && int64(t.PayloadLen) > Capacity(segSize) {
		return Trailer{}, fmt.Errorf("%w: payload %d exceeds capacity %d",
			ErrBadFrame, t.PayloadLen, Capacity(segSize))
	}
	return t, nil
}
