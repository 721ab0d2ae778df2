// Package shipcodec is the wire codec for shipped index segments
// (DESIGN.md "Replication"). Send-Index trades network traffic for backup
// CPU — the one metric where the paper loses to Build-Index (Fig. 7/10,
// 1.09–1.82× network amplification) — so the primary compresses, and when
// possible delta-encodes, every segment image before it is staged in a
// backup's RDMA buffer.
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
// followed by payloadLen payload bytes. rawCRC is a CRC-32C over the
// DECODED bytes, not the payload: it catches transport corruption and —
// crucially for delta frames — a base image that does not match the one
// the encoder diffed against, which would otherwise reconstruct silently
// wrong bytes — and a packer that did not rebuild a page bit for bit.
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
//
// Delta frames (FlagDelta) carry a page patch stream instead of the
// image: the pages that differ from a base image both sides hold. The
// stream is itself flate-compressed when that helps.
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
	// else DEFLATE-d at BestSpeed — and deltas as DEFLATE-d patch streams.
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

// Frame flags.
const (
	// FlagDelta marks a frame whose payload is a page patch stream
	// against a base image instead of a whole segment.
	FlagDelta = 1 << 0
)

// codec bytes stored inside a frame. stored marks a payload kept
// verbatim because encoding did not help; flate is a delta frame's
// DEFLATE-d patch stream and pages a full frame's page stream. The
// frame-level Codec a shipper announces on the wire stays Flate.
const (
	codecStored = 0
	codecFlate  = 1
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
	// DefaultPageSize is the delta page size when a caller passes none;
	// it matches the default B+-tree node size.
	DefaultPageSize = 4096
)

// Errors reported by the codec. All decode failures are typed — a
// corrupt or hostile frame must surface as an error, never a panic.
var (
	// ErrCorrupt marks a frame that fails structural validation or whose
	// decoded bytes miss the frame's raw CRC (transport damage, or a
	// delta applied over a mismatched base).
	ErrCorrupt = errors.New("shipcodec: corrupt frame")
	// ErrUnknownCodec marks a frame (or ship request) naming a codec this
	// build does not implement.
	ErrUnknownCodec = errors.New("shipcodec: unknown codec")
	// ErrNeedBase marks a delta frame decoded without its base image.
	ErrNeedBase = errors.New("shipcodec: delta frame needs base image")
)

// crcTable is the Castagnoli table, matching internal/integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded frame header.
type Header struct {
	// Codec is the payload encoding (codecStored, codecFlate or codecPages).
	Codec uint8
	// Flags carries FlagDelta.
	Flags uint8
	// RawLen is the decoded (original) byte count.
	RawLen uint32
	// PayloadLen is the encoded payload byte count following the header.
	PayloadLen uint32
	// RawCRC is the CRC-32C of the decoded bytes.
	RawCRC uint32
}

// IsDelta reports whether the frame carries a patch stream.
func (h Header) IsDelta() bool { return h.Flags&FlagDelta != 0 }

// Peek decodes and validates a frame header without touching the
// payload. frame may be longer than the frame itself (a staging buffer).
func Peek(frame []byte) (Header, error) {
	if len(frame) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d-byte frame", ErrCorrupt, len(frame))
	}
	if binary.LittleEndian.Uint16(frame[0:2]) != frameMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := Header{
		Codec:      frame[2],
		Flags:      frame[3],
		RawLen:     binary.LittleEndian.Uint32(frame[4:8]),
		PayloadLen: binary.LittleEndian.Uint32(frame[8:12]),
		RawCRC:     binary.LittleEndian.Uint32(frame[12:16]),
	}
	if h.Codec > codecPages {
		return Header{}, fmt.Errorf("%w: %d", ErrUnknownCodec, h.Codec)
	}
	// A patch stream is deflated and an image is paged, never the reverse.
	if h.Codec != codecStored && h.IsDelta() != (h.Codec == codecFlate) {
		return Header{}, fmt.Errorf("%w: codec %d on a frame with flags %#x", ErrCorrupt, h.Codec, h.Flags)
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
// place behind it.
func putHeader(frame []byte, cbyte, flags uint8, raw []byte) {
	binary.LittleEndian.PutUint16(frame[0:2], frameMagic)
	frame[2] = cbyte
	frame[3] = flags
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(raw)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(frame)-HeaderSize))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Checksum(raw, crcTable))
}

// Encode frames raw as a full (non-delta) segment image under codec,
// paged at DefaultPageSize.
func Encode(codec Codec, raw []byte) ([]byte, error) {
	return EncodePages(codec, raw, DefaultPageSize)
}

// EncodePages frames raw as a full (non-delta) segment image under
// codec. pageSize is the node size of the B+-tree raw may be a segment
// of (out of range selects DefaultPageSize): pages of that size that are
// leaves are packed. It decides only how small the frame is — any image
// round-trips at any page size — and the frame carries it, so Decode
// needs none for a full frame. The frame is built in the one buffer
// returned.
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
	putHeader(frame, cbyte, 0, raw)
	return frame, nil
}

// EncodeDelta frames raw as a page patch stream against base. pageSize
// defaults to DefaultPageSize when <= 0. The second return is false when
// a delta would not be smaller than a full frame's payload (too little
// in common with the base) — the caller should Encode a full frame
// instead.
func EncodeDelta(codec Codec, raw, base []byte, pageSize int) ([]byte, bool, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if codec != None && codec != Flate {
		return nil, false, fmt.Errorf("%w: %d", ErrUnknownCodec, codec)
	}
	patch := diffPages(raw, base, pageSize)
	if len(patch) >= len(raw) {
		return nil, false, nil
	}
	payload := patch
	cbyte := uint8(codecStored)
	if codec == Flate {
		d := deflaters.Get().(*deflater)
		defer deflaters.Put(d)
		d.buf.Reset()
		d.zw.Reset(&d.buf)
		if _, err := d.zw.Write(patch); err != nil {
			return nil, false, err
		}
		if err := d.zw.Close(); err != nil {
			return nil, false, err
		}
		if d.buf.Len() < len(patch) {
			payload = d.buf.Bytes() // copied into the frame below, before d goes back
			cbyte = codecFlate
		}
	}
	frame := make([]byte, HeaderSize+len(payload))
	copy(frame[HeaderSize:], payload)
	putHeader(frame, cbyte, FlagDelta, raw)
	return frame, true, nil
}

// diffPages builds the patch stream: for every pageSize-aligned page of
// raw that differs from the same page of base (or lies past base's end),
// append [pageIdx u32][pageLen u32][bytes]. The final page may be short.
func diffPages(raw, base []byte, pageSize int) []byte {
	var out []byte
	var hdr [8]byte
	for idx, off := 0, 0; off < len(raw); idx, off = idx+1, off+pageSize {
		end := off + pageSize
		if end > len(raw) {
			end = len(raw)
		}
		page := raw[off:end]
		if off < len(base) {
			bend := off + len(page)
			if bend <= len(base) && bytes.Equal(page, base[off:bend]) {
				continue
			}
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(idx))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(page)))
		out = append(out, hdr[:]...)
		out = append(out, page...)
	}
	return out
}

// PageSums are the CRC-32C of every page of one segment image: enough
// to tell, without the image, whether a delta against it could leave a
// page out. The zero value stands for an image nobody summed.
type PageSums struct {
	sums  []uint32
	whole bool // the image ended on a page boundary
}

// SumPages sums raw page by page, paged as EncodeDelta pages it
// (pageSize defaults to DefaultPageSize when <= 0; the final page may
// be short).
func SumPages(raw []byte, pageSize int) PageSums {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	s := PageSums{
		sums:  make([]uint32, 0, (len(raw)+pageSize-1)/pageSize),
		whole: len(raw)%pageSize == 0,
	}
	for off := 0; off < len(raw); off += pageSize {
		s.sums = append(s.sums, crc32.Checksum(raw[off:min(off+pageSize, len(raw))], crcTable))
	}
	return s
}

// DeltaCanWin reports whether EncodeDelta of the image s sums, against
// the image base sums, could return a delta — whether the base is worth
// fetching. diffPages leaves out exactly the pages equal to the base's
// page at the same index, and a patch that leaves out none is larger
// than the image, which EncodeDelta refuses: so when no sum of s equals
// base's at its index, skipping the attempt changes no frame. Sums that
// cannot decide answer true: an unsummed base, and an image ending in a
// short page, which diffPages compares with a prefix of the base's page
// that no sum describes.
func (s PageSums) DeltaCanWin(base PageSums) bool {
	if base.sums == nil || !s.whole {
		return true
	}
	for i := 0; i < len(s.sums) && i < len(base.sums); i++ {
		if s.sums[i] == base.sums[i] {
			return true
		}
	}
	return false
}

// applyPatch reconstructs rawLen bytes from base plus the patch stream.
// Pages not named in the patch are copied from base; a page the base
// cannot supply must appear in the patch — so an image longer than the
// two together claims bytes neither holds, and is refused before its
// length sizes anything.
func applyPatch(patch, base []byte, rawLen int, pageSize int) ([]byte, error) {
	if rawLen > len(base)+len(patch) {
		return nil, fmt.Errorf("%w: %d-byte image from a %d-byte base and a %d-byte patch", ErrCorrupt, rawLen, len(base), len(patch))
	}
	out := make([]byte, rawLen)
	copy(out, base)
	for len(patch) > 0 {
		if len(patch) < 8 {
			return nil, fmt.Errorf("%w: truncated patch entry", ErrCorrupt)
		}
		idx := int(binary.LittleEndian.Uint32(patch[0:4]))
		plen := int(binary.LittleEndian.Uint32(patch[4:8]))
		patch = patch[8:]
		if plen < 0 || plen > len(patch) || plen > pageSize {
			return nil, fmt.Errorf("%w: patch page of %d bytes", ErrCorrupt, plen)
		}
		off := idx * pageSize
		if off < 0 || off+plen > rawLen {
			return nil, fmt.Errorf("%w: patch page %d outside image", ErrCorrupt, idx)
		}
		copy(out[off:off+plen], patch[:plen])
		patch = patch[plen:]
	}
	return out, nil
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

// Decode reverses Encode/EncodeDelta: it validates the frame, decodes
// the payload, applies the patch over base for delta frames (base may be
// nil otherwise), and verifies the decoded bytes against the frame's raw
// CRC. pageSize must match the encoder's for delta frames (<= 0 selects
// DefaultPageSize); a full frame carries its own.
func Decode(frame, base []byte, pageSize int) ([]byte, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	h, err := Peek(frame)
	if err != nil {
		return nil, err
	}
	if h.IsDelta() && base == nil {
		return nil, ErrNeedBase
	}
	payload := frame[HeaderSize : HeaderSize+int(h.PayloadLen)]
	var raw []byte
	switch {
	case h.Codec == codecPages:
		if raw, err = decodePageStream(payload, int(h.RawLen)); err != nil {
			return nil, err
		}
	case h.IsDelta():
		if h.Codec == codecFlate {
			f := inflaters.Get().(*inflater)
			defer inflaters.Put(f)
			if err := f.open(payload); err != nil {
				return nil, err
			}
			// A patch stream's own length is not in the header; a hostile
			// rawLen cannot balloon it either: it never exceeds the image
			// plus one page, and over-long streams fail below.
			limit := int64(h.RawLen) + int64(pageSize) + 16
			payload, err = io.ReadAll(io.LimitReader(f.zr, limit+1))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if int64(len(payload)) > limit {
				return nil, fmt.Errorf("%w: inflated payload exceeds declared size", ErrCorrupt)
			}
		}
		if raw, err = applyPatch(payload, base, int(h.RawLen), pageSize); err != nil {
			return nil, err
		}
	default:
		if len(payload) != int(h.RawLen) {
			return nil, fmt.Errorf("%w: payload %d bytes, declared %d", ErrCorrupt, len(payload), h.RawLen)
		}
		raw = payload
	}
	if crc32.Checksum(raw, crcTable) != h.RawCRC {
		if h.IsDelta() {
			return nil, fmt.Errorf("%w: decoded bytes miss raw CRC (base mismatch?)", ErrCorrupt)
		}
		return nil, fmt.Errorf("%w: decoded bytes miss raw CRC", ErrCorrupt)
	}
	return raw, nil
}
