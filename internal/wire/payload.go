package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"tebis/internal/kv"
)

// Payload codecs for every operation. All fixed-width integers are
// little-endian. A scan reply or a control payload prefixes each byte
// string with its u32 length; a get reply's value, like a put's, runs to
// the end of the payload, behind a status byte (GetReply), so a small one
// rides inside its reply's 32-byte line. A client request spends fewer
// bytes, since it rides inside its header line when it fits InlineMax: a
// key is prefixed with its length as a uvarint (one byte under 128, the
// rule the value log's short record header follows), a get-rest's offset
// and record and a scan's count are uvarints, and a put's value takes no
// length at all — it runs to the end of the payload, whose length is the
// header's PayloadSize.
// That is safe because PayloadSize is as trustworthy as the value bytes
// themselves: the receiver takes a message once the word that closes it
// — the header's for an inline message, the trailer's at the offset
// PayloadSize names for a longer one — has landed, and an inline header
// claiming more than its line holds is refused. The request decoders are
// handed exactly PayloadSize bytes: one whose fields run past them fails,
// and so does a get, get-rest or scan that leaves a byte behind its last
// field.
//
// Every payload type has a Size (its exact encoded length) and an Encode
// that appends to dst after one grow(dst, Size()): Encode(nil) allocates
// exactly once, and Encode into a scratch buffer with room — behind the
// header slot of a message about to be finished in place (FinishMessage)
// — allocates nothing.

// grow returns dst with room for n more bytes.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 4 {
		return nil, nil, ErrShortBuffer
	}
	// Compared in 64 bits: 4+n must not wrap where int is 32 bits wide.
	n := binary.LittleEndian.Uint32(src)
	if uint64(n) > uint64(len(src)-4) {
		return nil, nil, ErrShortBuffer
	}
	return src[4 : 4+int(n)], src[4+int(n):], nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func readU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, ErrShortBuffer
	}
	return binary.LittleEndian.Uint32(src), src[4:], nil
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func readU64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(src), src[8:], nil
}

// uvarintLen is how many bytes binary.AppendUvarint takes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// readUvarint reads a uvarint from src: one that runs past src is
// ErrShortBuffer, one longer than 64 bits ErrBadHeader.
func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	switch {
	case n == 0:
		return 0, nil, ErrShortBuffer
	case n < 0:
		return 0, nil, fmt.Errorf("%w: uvarint overflows 64 bits", ErrBadHeader)
	}
	return v, src[n:], nil
}

// appendKey appends a request's key: its uvarint length, then its bytes.
func appendKey(dst, key []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(key))), key...)
}

// keySize is the encoded length of a request's key.
func keySize(key []byte) int { return uvarintLen(uint64(len(key))) + len(key) }

// readKey reads a request's key from src: a key length that runs past
// src, or names more bytes than follow it, is ErrShortBuffer.
func readKey(src []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrShortBuffer
	}
	return rest[:n], rest[n:], nil
}

// readUvarint32 reads a uvarint of at most 32 bits from src.
func readUvarint32(src []byte) (uint32, []byte, error) {
	v, rest, err := readUvarint(src)
	switch {
	case err != nil:
		return 0, nil, err
	case v > math.MaxUint32:
		return 0, nil, fmt.Errorf("%w: uvarint overflows 32 bits", ErrBadHeader)
	}
	return uint32(v), rest, nil
}

// readKeyCount reads a scan's payload: a key, then a uvarint of at most
// 32 bits that ends the payload.
func readKeyCount(p []byte) ([]byte, uint32, error) {
	key, rest, err := readKey(p)
	if err != nil {
		return nil, 0, err
	}
	v, rest, err := readUvarint32(rest)
	if err != nil {
		return nil, 0, err
	}
	return key, v, ended(rest)
}

// ended fails unless rest — what a request's fields left of its payload —
// is empty: PayloadSize names the payload's end, so a byte past the last
// field is a malformed request, not padding.
func ended(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes behind the last field", ErrBadHeader, len(rest))
	}
	return nil
}

// PutReq is the payload of OpPut (and OpDelete without a value): the key,
// then the value to the payload's end.
type PutReq struct {
	Key   []byte
	Value []byte
}

// Size returns the encoded payload length.
func (r PutReq) Size() int { return keySize(r.Key) + len(r.Value) }

// Encode appends the payload to dst.
func (r PutReq) Encode(dst []byte) []byte {
	return append(appendKey(grow(dst, r.Size()), r.Key), r.Value...)
}

// DecodePutReq parses a PutReq payload. The value is whatever follows the
// key: p must be exactly the payload, PayloadSize bytes.
func DecodePutReq(p []byte) (PutReq, error) {
	key, val, err := readKey(p)
	if err != nil {
		return PutReq{}, fmt.Errorf("put key: %w", err)
	}
	return PutReq{Key: key, Value: val}, nil
}

// GetReq is the payload of OpGet.
type GetReq struct {
	Key []byte
}

// Size returns the encoded payload length.
func (r GetReq) Size() int { return keySize(r.Key) }

// Encode appends the payload to dst.
func (r GetReq) Encode(dst []byte) []byte { return appendKey(grow(dst, r.Size()), r.Key) }

// DecodeGetReq parses a GetReq payload.
func DecodeGetReq(p []byte) (GetReq, error) {
	key, rest, err := readKey(p)
	if err == nil {
		err = ended(rest)
	}
	if err != nil {
		return GetReq{}, fmt.Errorf("get key: %w", err)
	}
	return GetReq{Key: key}, nil
}

// GetRestReq is the payload of OpGetRest: fetch value bytes from Offset
// onward after a partial reply (§3.4.1), out of the log record that
// reply named (GetReply.Record), so that a value read in pieces is one
// version's, whatever was put over the key in between.
type GetRestReq struct {
	Key    []byte
	Offset uint32
	Record uint64
}

// Size returns the encoded payload length.
func (r GetRestReq) Size() int {
	return keySize(r.Key) + uvarintLen(uint64(r.Offset)) + uvarintLen(r.Record)
}

// Encode appends the payload to dst: the key, then the offset and the
// record as uvarints.
func (r GetRestReq) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(appendKey(grow(dst, r.Size()), r.Key), uint64(r.Offset))
	return binary.AppendUvarint(dst, r.Record)
}

// DecodeGetRestReq parses a GetRestReq payload.
func DecodeGetRestReq(p []byte) (GetRestReq, error) {
	key, rest, err := readKey(p)
	if err != nil {
		return GetRestReq{}, err
	}
	off, rest, err := readUvarint32(rest)
	if err != nil {
		return GetRestReq{}, err
	}
	rec, rest, err := readUvarint(rest)
	if err != nil {
		return GetRestReq{}, err
	}
	return GetRestReq{Key: key, Offset: off, Record: rec}, ended(rest)
}

// ScanReq is the payload of OpScan.
type ScanReq struct {
	Start []byte
	Count uint32
}

// Size returns the encoded payload length.
func (r ScanReq) Size() int { return keySize(r.Start) + uvarintLen(uint64(r.Count)) }

// Encode appends the payload to dst.
func (r ScanReq) Encode(dst []byte) []byte {
	return binary.AppendUvarint(appendKey(grow(dst, r.Size()), r.Start), uint64(r.Count))
}

// DecodeScanReq parses a ScanReq payload.
func DecodeScanReq(p []byte) (ScanReq, error) {
	start, count, err := readKeyCount(p)
	if err != nil {
		return ScanReq{}, err
	}
	return ScanReq{Start: start, Count: count}, nil
}

// GetReply is the payload of OpGetReply: a status byte, then the value
// bytes to the payload's end — PayloadSize says where that is. A miss is
// the status byte alone. When the value did not fit the reply slot the
// reply is partial (FlagPartial in the header, and in the status byte):
// Value holds the first chunk, and behind it ride the value's TotalSize
// and the Record it was read from, which the client's get-rest names
// back. A whole reply carries neither: it decodes with TotalSize the
// length of its Value and no Record. So an S get's reply (10 bytes) and
// a miss ride inside the reply's line.
type GetReply struct {
	Found     bool
	TotalSize uint32
	Value     []byte
	// Partial marks a reply holding only the value's first chunk.
	Partial bool
	// Record names the log record a partial reply was read from.
	Record uint64
}

// Get-reply status bits, the payload's first byte.
const (
	getFound   = 1 << 0
	getPartial = 1 << 1
)

// GetReplyPrefix is the fixed part of a GetReply ahead of the value
// bytes: the status byte.
const GetReplyPrefix = 1

// PartialGetReplySuffix is what a partial GetReply carries behind its
// chunk: the value's total size (4) and the record it was read from (8).
const PartialGetReplySuffix = 4 + 8

// Size returns the encoded payload length.
func (r GetReply) Size() int {
	if r.Partial {
		return GetReplyPrefix + len(r.Value) + PartialGetReplySuffix
	}
	return GetReplyPrefix + len(r.Value)
}

// Encode appends the payload to dst.
func (r GetReply) Encode(dst []byte) []byte {
	start := len(dst)
	dst = append(BeginGetReply(grow(dst, r.Size())), r.Value...)
	if r.Partial {
		return FinishPartialGetReply(dst, start, r.TotalSize, r.Record)
	}
	FinishGetReply(dst[start:], r.Found)
	return dst
}

// BeginGetReply starts a GetReply built where it is sent from: it
// appends the status byte, still blank, to dst. The caller appends the
// value bytes behind it — the engine reads them straight there — and
// FinishGetReply or FinishPartialGetReply completes the reply. A blank
// status byte alone is a miss.
func BeginGetReply(dst []byte) []byte { return append(dst, 0) }

// FinishGetReply completes the whole GetReply p — BeginGetReply's status
// byte and whatever value bytes were appended behind it, none for a
// miss — giving the same bytes as GetReply.Encode.
func FinishGetReply(p []byte, found bool) {
	p[0] = 0
	if found {
		p[0] = getFound
	}
}

// FinishPartialGetReply completes the partial GetReply that starts at
// dst[start] — BeginGetReply's status byte and the chunk appended behind
// it — by appending the value's total size and the record the chunk was
// read from, and returns the extended dst: the same bytes as
// GetReply.Encode.
func FinishPartialGetReply(dst []byte, start int, total uint32, record uint64) []byte {
	dst[start] = getFound | getPartial
	return appendU64(appendU32(dst, total), record)
}

// DecodeGetReply parses a GetReply payload. A status byte with an
// unknown bit, a miss that carries bytes, or a partial reply shorter
// than its suffix or whose chunk is longer than its total is malformed.
func DecodeGetReply(p []byte) (GetReply, error) {
	if len(p) < GetReplyPrefix {
		return GetReply{}, ErrShortBuffer
	}
	switch st, body := p[0], p[GetReplyPrefix:]; {
	case st == 0 && len(body) == 0:
		return GetReply{}, nil
	case st == getFound:
		return GetReply{Found: true, TotalSize: uint32(len(body)), Value: body}, nil
	case st == getFound|getPartial && len(body) >= PartialGetReplySuffix:
		chunk := body[:len(body)-PartialGetReplySuffix]
		tail := body[len(chunk):]
		r := GetReply{Found: true, Partial: true, Value: chunk,
			TotalSize: binary.LittleEndian.Uint32(tail), Record: binary.LittleEndian.Uint64(tail[4:])}
		if uint64(len(chunk)) > uint64(r.TotalSize) {
			break
		}
		return r, nil
	}
	return GetReply{}, fmt.Errorf("get reply: %w: status %#x, %d bytes", ErrBadHeader, p[0], len(p))
}

// ScanReply is the payload of OpScanReply.
type ScanReply struct {
	Pairs []kv.Pair
}

// Size returns the encoded payload length.
func (r ScanReply) Size() int {
	n := 4
	for _, p := range r.Pairs {
		n += 8 + p.Size()
	}
	return n
}

// Encode appends the payload to dst.
func (r ScanReply) Encode(dst []byte) []byte {
	start := len(dst)
	dst = BeginScanReply(grow(dst, r.Size()))
	for _, p := range r.Pairs {
		dst = AppendScanPair(dst, p)
	}
	FinishScanReply(dst[start:], len(r.Pairs))
	return dst
}

// BeginScanReply starts a ScanReply built where it is sent from: it
// appends the pair count, still zero, to dst. The caller appends each
// pair with AppendScanPair as the scan hands it over, and
// FinishScanReply fills the count in.
func BeginScanReply(dst []byte) []byte { return appendU32(dst, 0) }

// ScanPairOverhead is what a pair costs in a ScanReply beyond its key
// and value: their two 4-byte lengths.
const ScanPairOverhead = 8

// AppendScanPair appends one pair to a ScanReply under construction. It
// copies the pair, which the scan may then overwrite.
func AppendScanPair(dst []byte, p kv.Pair) []byte {
	return appendBytes(appendBytes(dst, p.Key), p.Value)
}

// FinishScanReply completes the ScanReply p of count pairs, giving the
// same bytes as ScanReply.Encode.
func FinishScanReply(p []byte, count int) {
	binary.LittleEndian.PutUint32(p, uint32(count))
}

// DecodeScanReply parses a ScanReply payload.
func DecodeScanReply(p []byte) (ScanReply, error) {
	n, rest, err := readU32(p)
	if err != nil {
		return ScanReply{}, err
	}
	// Never pre-allocate from a remote-controlled count: each pair
	// costs at least 8 bytes on the wire, so anything claiming more
	// pairs than the payload could hold is malformed.
	if int(n) > len(rest)/8+1 {
		return ScanReply{}, fmt.Errorf("scan reply: %w: %d pairs in %d bytes", ErrBadHeader, n, len(rest))
	}
	out := ScanReply{Pairs: make([]kv.Pair, 0, n)}
	for i := uint32(0); i < n; i++ {
		var k, v []byte
		if k, rest, err = readBytes(rest); err != nil {
			return ScanReply{}, err
		}
		if v, rest, err = readBytes(rest); err != nil {
			return ScanReply{}, err
		}
		out.Pairs = append(out.Pairs, kv.Pair{Key: k, Value: v})
	}
	return out, nil
}

// StatusReply is the payload of OpPutReply/OpDeleteReply: a one-byte
// status (0 = OK) so even fixed-size replies carry the minimum payload.
type StatusReply struct {
	Status uint8
}

// Size returns the encoded payload length.
func (r StatusReply) Size() int { return 1 }

// Encode appends the payload to dst.
func (r StatusReply) Encode(dst []byte) []byte { return append(grow(dst, r.Size()), r.Status) }

// DecodeStatusReply parses a StatusReply payload.
func DecodeStatusReply(p []byte) (StatusReply, error) {
	if len(p) < 1 {
		return StatusReply{}, ErrShortBuffer
	}
	return StatusReply{Status: p[0]}, nil
}

// FlushTail is the primary → backup command to persist the replicated
// log tail buffer (§3.2 step 2b). PrimarySeg lets the backup create its
// <primary seg, backup seg> log-map entry (step 2d). A state transfer's
// FlushTail carries the sealed segment's Image, which the backup adopts
// instead of its log buffer; the image runs to the end of the payload,
// and a FlushTail without one is the live tail's.
type FlushTail struct {
	RegionID   uint16
	PrimarySeg uint32
	Image      []byte
}

// Size returns the encoded payload length.
func (r FlushTail) Size() int { return 4 + 4 + len(r.Image) }

// Encode appends the payload to dst.
func (r FlushTail) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendU32(dst, r.PrimarySeg)
	return append(dst, r.Image...)
}

// DecodeFlushTail parses a FlushTail payload; its Image aliases p and is
// nil when the payload carries none.
func DecodeFlushTail(p []byte) (FlushTail, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return FlushTail{}, err
	}
	seg, rest, err := readU32(rest)
	if err != nil {
		return FlushTail{}, err
	}
	r := FlushTail{RegionID: uint16(rid), PrimarySeg: seg}
	if len(rest) > 0 {
		r.Image = rest
	}
	return r, nil
}

// CompactionStart is the primary → backup announcement of one
// compaction job. With a concurrently-scheduling primary several jobs
// may be in flight at once; JobID keys the backup's per-compaction
// staging state so interleaved IndexSegment streams demultiplex.
type CompactionStart struct {
	RegionID uint16
	JobID    uint64
	SrcLevel uint8
	DstLevel uint8 // below levelFlagBit
	// Filter tells the backup to build the level's prefix filter while
	// it rewrites the job's segments, as the primary's builder does. It
	// rides in DstLevel's top bit, so the payload is no longer for it.
	Filter bool
}

// levelFlagBit is the top bit of a DstLevel byte, which carries its
// message's one flag: CompactionStart.Filter, CompactionDone.Moved. A
// level number never reaches it.
const levelFlagBit = 0x80

// Size returns the encoded payload length.
func (r CompactionStart) Size() int { return 4 + 8 + 2 }

// Encode appends the payload to dst.
func (r CompactionStart) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendU64(dst, r.JobID)
	dstLevel := r.DstLevel
	if r.Filter {
		dstLevel |= levelFlagBit
	}
	return append(dst, r.SrcLevel, dstLevel)
}

// DecodeCompactionStart parses a CompactionStart payload.
func DecodeCompactionStart(p []byte) (CompactionStart, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return CompactionStart{}, err
	}
	job, rest, err := readU64(rest)
	if err != nil {
		return CompactionStart{}, err
	}
	if len(rest) < 2 {
		return CompactionStart{}, ErrShortBuffer
	}
	return CompactionStart{
		RegionID: uint16(rid),
		JobID:    job,
		SrcLevel: rest[0],
		DstLevel: rest[1] &^ levelFlagBit,
		Filter:   rest[1]&levelFlagBit != 0,
	}, nil
}

// IndexSegment is the primary → backup message that ships one index
// segment (§3.3): its fixed fields, then the segment's Frame, which runs
// to the end of the payload. JobID matches the owning CompactionStart.
// Codec 0 ships the segment image raw; a nonzero Codec says Frame is a
// shipcodec frame of it.
type IndexSegment struct {
	RegionID   uint16
	JobID      uint64
	DstLevel   uint8
	PrimarySeg uint32
	Codec      uint8 // shipcodec.Codec; 0 = raw bytes, no frame
	Frame      []byte
}

// Size returns the encoded payload length.
func (r IndexSegment) Size() int { return 4 + 8 + 1 + 4 + 1 + len(r.Frame) }

// Encode appends the payload to dst.
func (r IndexSegment) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendU64(dst, r.JobID)
	dst = append(dst, r.DstLevel)
	dst = appendU32(dst, r.PrimarySeg)
	dst = append(dst, r.Codec)
	return append(dst, r.Frame...)
}

// DecodeIndexSegment parses an IndexSegment payload; its Frame aliases
// p. A payload that ends with its fixed fields ships no segment and is
// refused.
func DecodeIndexSegment(p []byte) (IndexSegment, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return IndexSegment{}, err
	}
	job, rest, err := readU64(rest)
	if err != nil {
		return IndexSegment{}, err
	}
	if len(rest) < 1 {
		return IndexSegment{}, ErrShortBuffer
	}
	r := IndexSegment{RegionID: uint16(rid), JobID: job, DstLevel: rest[0]}
	if r.PrimarySeg, rest, err = readU32(rest[1:]); err != nil {
		return IndexSegment{}, err
	}
	if len(rest) < 2 {
		return IndexSegment{}, ErrShortBuffer
	}
	r.Codec, r.Frame = rest[0], rest[1:]
	return r, nil
}

// GCRelease is the primary → backup command to free the victim segments
// a GC pass reclaimed (§4: the primary moves data, backups only free;
// DESIGN.md "Value-log GC"). Segs are primary-space segment IDs; the backup
// translates each through its log map, frees the local copy, and drops
// the mapping. Segments the backup does not know are skipped, so
// redelivery after a crash is harmless.
type GCRelease struct {
	RegionID uint16
	Segs     []uint32 // primary-space victim segments
}

// Size returns the encoded payload length.
func (r GCRelease) Size() int { return 4 + 4 + 4*len(r.Segs) }

// Encode appends the payload to dst.
func (r GCRelease) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendU32(dst, uint32(len(r.Segs)))
	for _, s := range r.Segs {
		dst = appendU32(dst, s)
	}
	return dst
}

// DecodeGCRelease parses a GCRelease payload.
func DecodeGCRelease(p []byte) (GCRelease, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return GCRelease{}, err
	}
	n, rest, err := readU32(rest)
	if err != nil {
		return GCRelease{}, err
	}
	r := GCRelease{RegionID: uint16(rid)}
	for i := uint32(0); i < n; i++ {
		var s uint32
		s, rest, err = readU32(rest)
		if err != nil {
			return GCRelease{}, err
		}
		r.Segs = append(r.Segs, s)
	}
	return r, nil
}

// CompactionDone is the primary → backup end-of-compaction message: the
// backup translates Root through the JobID's index map, installs the
// new level, and discards replaced levels (§3.3) — or, for a move,
// relabels its level SrcLevel as DstLevel.
type CompactionDone struct {
	RegionID  uint16
	JobID     uint64
	SrcLevel  uint8
	DstLevel  uint8  // below levelFlagBit
	Root      uint64 // primary device offset of the new root
	NumKeys   uint32
	Watermark uint64 // primary log offset covered by levels
	// Moved says the job moved level SrcLevel to DstLevel whole: no
	// segment was shipped for it. It rides in DstLevel's top bit, so
	// the payload is no longer for it.
	Moved bool
}

// Size returns the encoded payload length.
func (r CompactionDone) Size() int { return 4 + 8 + 2 + 8 + 4 + 8 }

// Encode appends the payload to dst.
func (r CompactionDone) Encode(dst []byte) []byte {
	dst = appendU32(grow(dst, r.Size()), uint32(r.RegionID))
	dst = appendU64(dst, r.JobID)
	dstLevel := r.DstLevel
	if r.Moved {
		dstLevel |= levelFlagBit
	}
	dst = append(dst, r.SrcLevel, dstLevel)
	dst = appendU64(dst, r.Root)
	dst = appendU32(dst, r.NumKeys)
	return appendU64(dst, r.Watermark)
}

// DecodeCompactionDone parses a CompactionDone payload.
func DecodeCompactionDone(p []byte) (CompactionDone, error) {
	rid, rest, err := readU32(p)
	if err != nil {
		return CompactionDone{}, err
	}
	job, rest, err := readU64(rest)
	if err != nil {
		return CompactionDone{}, err
	}
	if len(rest) < 2 {
		return CompactionDone{}, ErrShortBuffer
	}
	r := CompactionDone{
		RegionID: uint16(rid),
		JobID:    job,
		SrcLevel: rest[0],
		DstLevel: rest[1] &^ levelFlagBit,
		Moved:    rest[1]&levelFlagBit != 0,
	}
	rest = rest[2:]
	if r.Root, rest, err = readU64(rest); err != nil {
		return CompactionDone{}, err
	}
	if r.NumKeys, rest, err = readU32(rest); err != nil {
		return CompactionDone{}, err
	}
	if r.Watermark, _, err = readU64(rest); err != nil {
		return CompactionDone{}, err
	}
	return r, nil
}
