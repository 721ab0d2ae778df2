// Package vlog implements the Tebis/Kreon value log.
//
// KV separation stores the full key-value records in an append-only log
// while the LSM index keeps only <key prefix, device offset> pairs. The
// log is a list of fixed-size device segments. New records are
// accumulated in an in-memory tail segment; when the tail fills up it is
// sealed and flushed to the device in one large sequential write —
// exactly the event that drives the paper's value-log replication
// protocol (primary flushes, then tells backups to flush their RDMA
// buffers, §3.2).
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tebis/internal/integrity"
	"tebis/internal/kv"
	"tebis/internal/storage"
)

// A record is a header, its key and its value, and its header takes
// one of two forms, told apart by the top bit of its first byte:
//
//	short, 3 bytes: the key length (1..127); the value length (0..65 534)
//	                as a little-endian uint16, 0xFFFF for a tombstone
//	long,  8 bytes: the key length with the top bit set, as a big-endian
//	                uint32; the value length as a little-endian uint32,
//	                0xFFFFFFFF for a tombstone
//
// Append takes the short form whenever the record fits it. A zero first
// byte is padding: no record starts with one, so a walk of an image
// stops at the zeroed rest of its segment.
const (
	// HeaderSize is the longest record header: what scratch for one
	// must hold.
	HeaderSize = 8

	shortHeaderSize = 3
	longFlag        = 0x80      // in a header's first byte: the long form
	shortKeyMax     = 127       // the longest key of a short header
	shortTombstone  = 0xFFFF    // a short header's tombstone value length
	longTombstone   = 1<<32 - 1 // a long header's
)

// Errors reported by the log.
var (
	ErrRecordTooLarge = errors.New("vlog: record larger than a segment")
	ErrBadOffset      = errors.New("vlog: invalid record offset")
	// ErrCorruptRecord reports a record whose header decodes to an
	// impossible length — corrupt log bytes rather than a bad pointer.
	ErrCorruptRecord = errors.New("vlog: corrupt record")
)

// Sealed describes a tail segment that has just been filled, flushed to
// the local device, and made immutable. Replication uses it to tell
// backups to persist the corresponding RDMA buffer.
type Sealed struct {
	// Seg is the device segment the tail was flushed to.
	Seg storage.SegmentID
	// Len is the size of the segment image written (a full segment). The
	// image itself is on the device and, for replication, already in the
	// backups' log buffers record by record; nobody needs a third copy.
	Len int
}

// AppendResult reports where an appended record landed.
type AppendResult struct {
	// Off is the device offset of the record (also its index pointer).
	Off storage.Offset
	// TailPos is the byte offset inside the current tail segment.
	TailPos int64
	// Rec is the encoded record, aliasing the tail buffer: valid only
	// until the tail seals. Replication copies it into RDMA buffers
	// immediately.
	Rec []byte
	// Sealed is non-nil when this append first sealed the previous
	// tail segment (the record itself landed in a fresh tail).
	Sealed *Sealed
}

// Log is the value log of one region.
type Log struct {
	dev storage.Device
	geo storage.Geometry
	cap int64 // usable payload bytes per segment (framing-aware)

	mu      sync.Mutex
	segs    []storage.SegmentID // sealed live segments, oldest first
	tailSeg atomic.Uint32       // the tail's SegmentID; stored under mu
	tailBuf []byte
	tailLen int64
	bytes   uint64 // total user bytes appended

	// Space ledger (space.go): per sealed live segment, how many payload
	// bytes it holds and how many are known dead — an entry is also what
	// makes the segment readable (readAt). tailDead accumulates dead
	// bytes of the unsealed tail; trimmed counts bytes reclaimed. Entries
	// are published and their fields changed under mu.
	space    storage.SegmentTable[segSpace]
	tailDead uint64
	trimmed  uint64
}

// New creates an empty value log on dev. It allocates nothing: the
// first Append allocates the first tail segment, so a log that only
// adopts segments — a backup's, until promotion — holds no tail it
// never writes. Every record still has its device offset at append time
// (Send-Index may ship leaves pointing at the unflushed tail).
func New(dev storage.Device) (*Log, error) {
	return &Log{
		dev: dev,
		geo: dev.Geometry(),
		cap: storage.UsableCapacity(dev),
	}, nil
}

// rollTail allocates a fresh tail segment. Caller holds l.mu.
func (l *Log) rollTail() error {
	seg, err := l.dev.Alloc()
	if err != nil {
		return err
	}
	l.tailSeg.Store(uint32(seg))
	if l.tailBuf == nil {
		l.tailBuf = make([]byte, l.geo.SegmentSize())
	} else {
		for i := range l.tailBuf {
			l.tailBuf[i] = 0
		}
	}
	l.tailLen = 0
	return nil
}

// headerLen returns the length of the header a record with a key of
// keyLen bytes and a value of valLen (0 for a tombstone) is given.
func headerLen(keyLen, valLen int) int {
	if keyLen <= shortKeyMax && valLen < shortTombstone {
		return shortHeaderSize
	}
	return HeaderSize
}

// EncodedLen returns the on-log length of a record with a key of keyLen
// bytes and a value of valLen (0 for a tombstone): header, key, value.
func EncodedLen(keyLen, valLen int) int { return headerLen(keyLen, valLen) + keyLen + valLen }

// AppendEncoded appends to dst the record for (key, value) as Append
// lays it in the log — for images built outside a Log. A tombstone's
// value is dropped.
func AppendEncoded(dst, key, value []byte, tombstone bool) []byte {
	if tombstone {
		value = nil
	}
	n, need := len(dst), EncodedLen(len(key), len(value))
	dst = slices.Grow(dst, need)[:n+need]
	putRecord(dst[n:], key, value, tombstone)
	return dst
}

// putRecord encodes the record for (key, value) into buf, which is its
// EncodedLen long: the one record encoder.
func putRecord(buf, key, value []byte, tombstone bool) {
	hl := headerLen(len(key), len(value))
	if hl == shortHeaderSize {
		buf[0] = byte(len(key))
		v := uint16(len(value))
		if tombstone {
			v = shortTombstone
		}
		binary.LittleEndian.PutUint16(buf[1:3], v)
	} else {
		binary.BigEndian.PutUint32(buf[0:4], uint32(len(key))|longFlag<<24)
		v := uint32(len(value))
		if tombstone {
			v = longTombstone
		}
		binary.LittleEndian.PutUint32(buf[4:8], v)
	}
	copy(buf[hl:], key)
	copy(buf[hl+len(key):], value)
}

// Append writes a put record for (key, value) and returns its location.
// A nil value with tombstone=true records a delete.
func (l *Log) Append(key, value []byte, tombstone bool) (AppendResult, error) {
	if len(key) == 0 {
		return AppendResult{}, fmt.Errorf("vlog: empty key")
	}
	if tombstone {
		value = nil
	}
	need := int64(EncodedLen(len(key), len(value)))
	if need > l.cap {
		return AppendResult{}, fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, need, l.cap)
	}

	l.mu.Lock()
	defer l.mu.Unlock()

	var res AppendResult
	if l.TailSegment() == storage.NilSegment {
		if err := l.rollTail(); err != nil {
			return AppendResult{}, err
		}
	}
	if l.tailLen+need > l.cap {
		sealed, err := l.sealLocked()
		if err != nil {
			return AppendResult{}, err
		}
		res.Sealed = sealed
	}

	pos := l.tailLen
	buf := l.tailBuf[pos : pos+need]
	putRecord(buf, key, value, tombstone)

	l.tailLen += need
	l.bytes += uint64(len(key) + len(value))

	res.Off = l.geo.Pack(l.TailSegment(), pos)
	res.TailPos = pos
	res.Rec = buf
	return res, nil
}

// sealLocked flushes the current tail to the device and starts a new one.
// The segment's ledger entry is published after its bytes are on the
// device and before the tail moves on, which is the order readAt's
// lock-free path relies on.
func (l *Log) sealLocked() (*Sealed, error) {
	seg := l.TailSegment()
	if err := storage.WriteFramed(l.dev, l.geo.Pack(seg, 0), l.tailBuf, integrity.KindLog); err != nil {
		return nil, err
	}
	sealed := &Sealed{Seg: seg, Len: len(l.tailBuf)}
	l.segs = append(l.segs, seg)
	l.space.Store(seg, &segSpace{total: uint64(l.tailLen), dead: l.tailDead})
	l.tailDead = 0
	if err := l.rollTail(); err != nil {
		return nil, err
	}
	return sealed, nil
}

// Seal force-flushes a non-empty partial tail (shutdown, state transfer).
// It returns nil if the tail was empty.
func (l *Log) Seal() (*Sealed, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tailLen == 0 {
		return nil, nil
	}
	return l.sealLocked()
}

// readAt reads n bytes at off, serving from the in-memory tail when the
// offset points into the unflushed tail segment (the mmap-cache analogue
// for the hot tail). Only a tail read takes mu. A seal publishes the
// segment's ledger entry before it moves the tail on, so a reader that
// sees another tail finds the entry of the segment it sealed.
func (l *Log) readAt(off storage.Offset, p []byte) error {
	seg := l.geo.Segment(off)
	if seg == l.TailSegment() {
		l.mu.Lock()
		if seg == l.TailSegment() {
			defer l.mu.Unlock()
			within := l.geo.Within(off)
			if within+int64(len(p)) > l.tailLen {
				return fmt.Errorf("%w: tail read past %d", ErrBadOffset, l.tailLen)
			}
			copy(p, l.tailBuf[within:])
			return nil
		}
		l.mu.Unlock() // sealed since
	}
	// Membership check before touching the device: a GC-released
	// segment may have been re-allocated for unrelated data,
	// so a raw device read could succeed and return recycled bytes.
	if l.space.Load(seg) == nil {
		return fmt.Errorf("%w: segment %d at offset %#x", ErrReclaimed, seg, off)
	}
	return l.dev.ReadAt(off, p)
}

// Header is the decoded, checked header of one record: where the record
// starts and how long its key and value are. Only the log hands one out
// (ReadHeader, AppendKey, AppendRecord), so a caller that holds one
// holds the result of the checks decodeHeader makes, for that offset,
// and AppendValue need not read the header again.
type Header struct {
	off            storage.Offset
	keyLen, valLen int // valLen is 0 for a tombstone
	tomb           bool
}

// Off returns the device offset of the record the header was read at;
// the zero Header's is storage.NilOffset, which no record has.
func (h Header) Off() storage.Offset { return h.off }

// KeyLen and ValLen return the lengths of the record's key and value.
func (h Header) KeyLen() int { return h.keyLen }
func (h Header) ValLen() int { return h.valLen }

// Tombstone reports whether the record is a delete.
func (h Header) Tombstone() bool { return h.tomb }

// HeaderLen returns the length of the record's header: where its key
// starts.
func (h Header) HeaderLen() int { return headerLen(h.keyLen, h.valLen) }

// RecLen returns the record's encoded on-log length.
func (h Header) RecLen() int { return EncodedLen(h.keyLen, h.valLen) }

// isLong reports whether a header whose first byte is first is long:
// whether a reader that has read its first shortHeaderSize bytes has
// the rest of it to read.
func isLong(first byte) bool { return first&longFlag != 0 }

// decodeHeader decodes the header at the start of hdr, of a record that
// has room bytes from its first byte to the end of its segment (or
// image) — the one header decoder, behind the record readers and the
// image walkers alike. hdr holds the whole header, or as much of it as
// room does. ok is false for a zero first byte: the position holds
// padding, not a record. A record never crosses its segment, so a
// header or lengths that would are corrupt log bytes (ErrCorruptRecord);
// checking them here is also what stops a decoded frame trailer or a
// flipped bit from sizing a giant read. So is a long header the short
// form would hold: each record has one encoding, putRecord's.
func decodeHeader(hdr []byte, room int64) (h Header, ok bool, err error) {
	if hdr[0] == 0 {
		return Header{}, false, nil
	}
	hl, keyLen, valLen := int64(shortHeaderSize), uint32(hdr[0]), uint32(0)
	if isLong(hdr[0]) {
		hl = HeaderSize
	}
	if hl > room {
		return Header{}, false, fmt.Errorf("%w: %d byte header in %d bytes", ErrCorruptRecord, hl, room)
	}
	if hl == shortHeaderSize {
		if valLen = uint32(binary.LittleEndian.Uint16(hdr[1:3])); valLen == shortTombstone {
			h.tomb, valLen = true, 0
		}
	} else {
		keyLen = binary.BigEndian.Uint32(hdr[0:4]) &^ (longFlag << 24)
		if valLen = binary.LittleEndian.Uint32(hdr[4:8]); valLen == longTombstone {
			h.tomb, valLen = true, 0
		}
	}
	if keyLen == 0 || hl+int64(keyLen)+int64(valLen) > room || int64(headerLen(int(keyLen), int(valLen))) != hl {
		return Header{}, false, fmt.Errorf("%w: %d+%d byte record behind a %d byte header in %d bytes", ErrCorruptRecord, keyLen, valLen, hl, room)
	}
	h.keyLen, h.valLen = int(keyLen), int(valLen)
	return h, true, nil
}

// ReadHeader reads and checks the header of the record at off: its
// first shortHeaderSize bytes, and the rest of a long one. A zero first
// byte means off points into padding, not at a record (ErrBadOffset).
// The bytes pass through scratch — memory the caller already has, a
// destination's spare capacity for one — because a buffer handed to
// storage.Device escapes: a local array would be a heap allocation per
// record looked at. Only a scratch shorter than HeaderSize is replaced
// by one.
func (l *Log) ReadHeader(off storage.Offset, scratch []byte) (Header, error) {
	if len(scratch) < HeaderSize {
		scratch = make([]byte, HeaderSize)
	}
	if err := l.readAt(off, scratch[:shortHeaderSize]); err != nil {
		return Header{}, err
	}
	if isLong(scratch[0]) && l.room(off) >= HeaderSize {
		if err := l.readAt(off+shortHeaderSize, scratch[shortHeaderSize:HeaderSize]); err != nil {
			return Header{}, err
		}
	}
	return l.checkHeader(scratch, off)
}

// room returns the bytes from off to the end of its segment: the most a
// record at off may take.
func (l *Log) room(off storage.Offset) int64 { return l.geo.SegmentSize() - l.geo.Within(off) }

// checkHeader decodes the header bytes read at off and checks them as
// a record's: the checks every record reader makes.
func (l *Log) checkHeader(hdr []byte, off storage.Offset) (Header, error) {
	h, ok, err := decodeHeader(hdr, l.room(off))
	if err != nil {
		return Header{}, fmt.Errorf("%w at %#x", err, off)
	}
	if !ok {
		return Header{}, fmt.Errorf("%w: padding at %#x", ErrBadOffset, off)
	}
	h.off = off
	return h, nil
}

// appendAt appends the n bytes at off to dst: the one device read every
// record reader ends in (none for n = 0: an empty value, an empty
// range).
func (l *Log) appendAt(dst []byte, off storage.Offset, n int) ([]byte, error) {
	if n == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	if err := l.readAt(off, dst[len(dst):end]); err != nil {
		return dst, err
	}
	return dst[:end], nil
}

// appendHead reads the header of the record at off through dst's spare
// capacity — ReadHeader finds HeaderSize bytes of its own when dst has
// none to spare, as Get's and GetKey's nil has not — and then, over it,
// appends the record's key, and its value for the whole record. On an
// error dst comes back as it was.
func (l *Log) appendHead(dst []byte, off storage.Offset, whole bool) ([]byte, Header, error) {
	h, err := l.ReadHeader(off, dst[len(dst):cap(dst)])
	if err != nil {
		return dst, Header{}, err
	}
	n := h.keyLen
	if whole {
		n += h.valLen
	}
	out, err := l.appendAt(dst, off+storage.Offset(h.HeaderLen()), n)
	if err != nil {
		return dst, Header{}, err
	}
	return out, h, nil
}

// AppendKey appends the key of the record at off to dst — what orders
// two index entries whose prefixes tie, without fetching the value —
// and returns the record's header with it, so that a caller who then
// wants the value does not read the header twice. Nothing before
// len(dst) is written.
func (l *Log) AppendKey(dst []byte, off storage.Offset) ([]byte, Header, error) {
	return l.appendHead(dst, off, false)
}

// AppendRecord appends the key and then the value of the record at off
// to dst, in one read; the header it returns says where the key ends.
// Nothing before len(dst) is written.
func (l *Log) AppendRecord(dst []byte, off storage.Offset) ([]byte, Header, error) {
	return l.appendHead(dst, off, true)
}

// AppendValue appends up to n bytes of the value of h's record,
// starting from byte from of it, to dst: a reply slot smaller than the
// value reads only what it sends. The range is clipped to the value;
// nothing before len(dst) is written.
func (l *Log) AppendValue(dst []byte, h Header, from, n int) ([]byte, error) {
	from = min(max(from, 0), h.valLen)
	n = min(max(n, 0), h.valLen-from)
	return l.appendAt(dst, h.off+storage.Offset(h.HeaderLen()+h.keyLen+from), n)
}

// Get decodes the record at off into a buffer of its own. For
// tombstones it returns the key, a nil value, and tombstone=true.
func (l *Log) Get(off storage.Offset) (pair kv.Pair, tombstone bool, err error) {
	buf, h, err := l.AppendRecord(nil, off)
	if err != nil {
		return kv.Pair{}, false, err
	}
	return kv.Pair{Key: buf[:h.keyLen], Value: buf[h.keyLen:]}, h.tomb, nil
}

// GetKey decodes only the key of the record at off, into a buffer of
// its own.
func (l *Log) GetKey(off storage.Offset) ([]byte, error) {
	key, _, err := l.AppendKey(nil, off)
	return key, err
}

// Geometry returns the underlying device geometry.
func (l *Log) Geometry() storage.Geometry { return l.geo }

// ReadSegmentImage reads the raw image of any allocated device segment
// (log or index). State transfer uses it to ship full segment images to
// a new backup.
func (l *Log) ReadSegmentImage(seg storage.SegmentID, p []byte) error {
	if int64(len(p)) != l.geo.SegmentSize() {
		return fmt.Errorf("vlog: segment image buffer of %d bytes, want %d", len(p), l.geo.SegmentSize())
	}
	l.mu.Lock()
	if seg == l.TailSegment() {
		copy(p, l.tailBuf)
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	return l.dev.ReadAt(l.geo.Pack(seg, 0), p)
}

// Position returns the device offset where the next record will be
// appended. Everything appended before this point is in the log; the
// LSM engine captures it as the compaction watermark used for L0
// reconstruction after a primary failure (§3.5).
func (l *Log) Position() storage.Offset {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.geo.Pack(l.TailSegment(), l.tailLen)
}

// TailSegment returns the current tail segment ID.
func (l *Log) TailSegment() storage.SegmentID { return storage.SegmentID(l.tailSeg.Load()) }

// TailSnapshot returns the tail segment ID, a copy of its current
// contents, and its fill level. Used for backup state transfer.
func (l *Log) TailSnapshot() (storage.SegmentID, []byte, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.TailSegment(), append([]byte(nil), l.tailBuf[:l.tailLen]...), l.tailLen
}

// Segments returns the sealed live segments in append order (oldest
// first); segments GC released are gone.
func (l *Log) Segments() []storage.SegmentID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]storage.SegmentID(nil), l.segs...)
}

// UserBytes returns the cumulative user data (keys+values) appended.
func (l *Log) UserBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}
