// Package shipcodec is the wire codec for shipped index segments
// (DESIGN.md "Replication"). Send-Index trades network traffic for backup
// CPU — the one metric where the paper loses to Build-Index (Fig. 7/10,
// 1.09–1.82× network amplification) — so the primary compresses every
// segment image before it is staged in a backup's RDMA buffer.
//
// The codec is wire-only: the backup decodes the frame back to the raw
// segment bytes before the offset rewrite, so the bytes that reach the
// device are identical to an uncompressed ship and the integrity layer's
// byte-convergence guarantees (scrub, fetch, repair — DESIGN.md "Storage
// integrity") are untouched.
//
// A frame is self-describing:
//
//	[magic u16][codec u8][flags u8][rawLen u32][payloadLen u32][rawCRC u32]
//
// followed by payloadLen payload bytes. The flags byte is always 0.
// rawCRC is a CRC-32C over the DECODED bytes, not the payload: it
// catches transport corruption and a packer that did not rebuild a page
// bit for bit.
// Frames whose encoded payload would not be smaller than the raw bytes
// are stored verbatim (codec byte Stored), so a frame never grows a
// segment by more than MaxOverhead.
//
// A full frame's payload is a page stream (pages.go): the image cut into
// fixed-size pages, the B+-tree builder's node size. A page that is a
// leaf goes in line in btree's packed form — 98 % of a shipped index
// image is leaves, columnar already, whose offset column the packed form
// narrows to the bytes the page needs (about 0.83 of the image; a
// byte-stream compressor spends 12–16 µs/KB to reach about 0.80). Every
// other page (index nodes, a short last page, and all of a value-log
// segment: Sync and repair push those through the same Encode) is
// gathered in order as residue and DEFLATE-d behind the packed pages.
package shipcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Codec identifies the payload encoding requested by a shipper. The
// zero value disables the codec layer entirely (the paper's baseline:
// raw bytes on the wire, no frame).
type Codec uint8

// Codecs.
const (
	// None ships raw bytes with no frame (legacy / baseline).
	None Codec = 0
	// Flate frames images as page streams — leaves packed, everything
	// else DEFLATE-d at BestSpeed.
	Flate Codec = 1
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case None:
		return "none"
	case Flate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// codec bytes stored inside a frame. stored marks a payload kept
// verbatim because encoding did not help; pages is the page stream. Byte
// 1 is retired (an older primary's page-delta patch stream) and refused.
// The frame-level Codec a shipper announces on the wire stays Flate.
const (
	codecStored = 0
	codecPages  = 2
)

// Frame layout.
const (
	frameMagic = 0x5343 // "SC"
	// HeaderSize is the fixed frame header size.
	HeaderSize = 16
	// MaxOverhead bounds how much larger than the raw bytes a frame can
	// be — stored-mode fallback caps the payload at rawLen — so staging
	// buffers sized segment+MaxOverhead always fit a frame.
	MaxOverhead = HeaderSize
	// DefaultPageSize is the page size when a caller passes none; it
	// matches the default B+-tree node size.
	DefaultPageSize = 4096
)

// Errors reported by the codec. All decode failures are typed — a
// corrupt or hostile frame must surface as an error, never a panic.
var (
	// ErrCorrupt marks a frame that fails structural validation or whose
	// decoded bytes miss the frame's raw CRC.
	ErrCorrupt = errors.New("shipcodec: corrupt frame")
	// ErrUnknownCodec marks a frame (or ship request) naming a codec this
	// build does not implement.
	ErrUnknownCodec = errors.New("shipcodec: unknown codec")
)

// crcTable is the Castagnoli table, matching internal/integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded frame header.
type Header struct {
	// Codec is the payload encoding (codecStored or codecPages).
	Codec uint8
	// RawLen is the decoded (original) byte count.
	RawLen uint32
	// PayloadLen is the encoded payload byte count following the header.
	PayloadLen uint32
	// RawCRC is the CRC-32C of the decoded bytes.
	RawCRC uint32
}

// Peek decodes and validates a frame header without touching the
// payload. frame may be longer than the frame itself (a staging buffer).
// A page-delta frame from an older primary (codec byte 1, or a nonzero
// flags byte) is refused, never misread as an image.
func Peek(frame []byte) (Header, error) {
	if len(frame) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d-byte frame", ErrCorrupt, len(frame))
	}
	if binary.LittleEndian.Uint16(frame[0:2]) != frameMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := Header{
		Codec:      frame[2],
		RawLen:     binary.LittleEndian.Uint32(frame[4:8]),
		PayloadLen: binary.LittleEndian.Uint32(frame[8:12]),
		RawCRC:     binary.LittleEndian.Uint32(frame[12:16]),
	}
	if h.Codec != codecStored && h.Codec != codecPages {
		return Header{}, fmt.Errorf("%w: %d", ErrUnknownCodec, h.Codec)
	}
	if frame[3] != 0 {
		return Header{}, fmt.Errorf("%w: flags %#x", ErrCorrupt, frame[3])
	}
	if int64(h.PayloadLen) > int64(len(frame))-HeaderSize {
		return Header{}, fmt.Errorf("%w: payload %d exceeds frame", ErrCorrupt, h.PayloadLen)
	}
	return h, nil
}

// deflater is the state one compression needs: a flate.Writer is 1.2 MB
// of tables allocated and cleared at construction, far more than the
// 256 KB segment it then compresses, so writers — and the buffer their
// output collects in until its place in the frame is known — are kept and
// Reset from one frame to the next.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	// BestSpeed is a valid level, so NewWriter cannot fail.
	d.zw, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
	return d
}}

// putHeader fills in the header of frame, whose payload is already in
// place behind it (its flags byte is left 0).
func putHeader(frame []byte, cbyte uint8, raw []byte) {
	binary.LittleEndian.PutUint16(frame[0:2], frameMagic)
	frame[2] = cbyte
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(raw)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(frame)-HeaderSize))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Checksum(raw, crcTable))
}

// Encode frames raw as a segment image under codec, paged at
// DefaultPageSize.
func Encode(codec Codec, raw []byte) ([]byte, error) {
	return EncodePages(codec, raw, DefaultPageSize)
}

// EncodePages frames raw as a segment image under codec. pageSize is the
// node size of the B+-tree raw may be a segment of (out of range selects
// DefaultPageSize): pages of that size that are leaves are packed. It
// decides only how small the frame is — any image round-trips at any
// page size — and the frame carries it, so Decode needs none. The frame
// is built in the one buffer returned.
func EncodePages(codec Codec, raw []byte, pageSize int) ([]byte, error) {
	if codec != None && codec != Flate {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCodec, codec)
	}
	if pageSize <= 0 || pageSize > maxPageSize {
		pageSize = DefaultPageSize
	}
	frame := make([]byte, HeaderSize, HeaderSize+len(raw))
	cbyte := uint8(codecStored)
	if codec == Flate {
		var err error
		if frame, err = appendPageStream(frame, raw, pageSize); err != nil {
			return nil, err
		}
		cbyte = codecPages
		if len(frame)-HeaderSize >= len(raw) {
			frame, cbyte = frame[:HeaderSize], codecStored
		}
	}
	if cbyte == codecStored {
		frame = append(frame, raw...)
	}
	putHeader(frame, cbyte, raw)
	return frame, nil
}

// inflater is the decode-side counterpart of deflater: a flate reader
// (44 KB of window and tables) Reset from frame to frame.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // a flate.Resetter reading src
	one [1]byte       // where a stream that should have ended is read for more
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.zr = flate.NewReader(&f.src)
	return f
}}

// open points the inflater at one deflated stream.
func (f *inflater) open(stream []byte) error {
	f.src.Reset(stream)
	if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// Decode reverses Encode: it validates the frame, decodes the payload and
// verifies the decoded bytes against the frame's raw CRC. The frame
// carries its own page size. The two ignored parameters are kept only
// because benchmark/ compiles against them (ROADMAP item 18).
func Decode(frame, _ []byte, _ int) ([]byte, error) {
	h, err := Peek(frame)
	if err != nil {
		return nil, err
	}
	raw := frame[HeaderSize : HeaderSize+int(h.PayloadLen)]
	if h.Codec == codecPages {
		if raw, err = decodePageStream(raw, int(h.RawLen)); err != nil {
			return nil, err
		}
	} else if len(raw) != int(h.RawLen) {
		return nil, fmt.Errorf("%w: payload %d bytes, declared %d", ErrCorrupt, len(raw), h.RawLen)
	}
	if crc32.Checksum(raw, crcTable) != h.RawCRC {
		return nil, fmt.Errorf("%w: decoded bytes miss raw CRC", ErrCorrupt)
	}
	return raw, nil
}
