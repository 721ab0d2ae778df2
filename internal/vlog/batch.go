package vlog

import (
	"fmt"
	"slices"

	"tebis/internal/storage"
)

// Batch is the memory the log reads a batch of records through: their
// headers with one vectored device read (ReadHeaders; two when a header
// is long), then the bodies of as many of them as the caller wants with
// one more (AppendBodies), where a ReadHeader and an AppendRecord per
// record make two dependent reads each. Its zero value is ready to use, and it keeps its memory
// from batch to batch, so a pooled owner reads batches without
// allocating.
type Batch struct {
	hdrs []Header
	raw  []byte           // the headers' bytes, HeaderSize a record
	offs []storage.Offset // the bodies' offsets, or the long headers' rest
	bufs [][]byte         // one destination per record
	long []int            // the records whose headers are long

	// The ranges in sealed segments — the device's share — and the
	// record each belongs to.
	devOffs []storage.Offset
	devBufs [][]byte
	devRec  []int
}

// ReadHeaders reads the headers of the records at offs and makes each
// the checks ReadHeader makes, and returns them in order: good until
// the next ReadHeaders through b. It reads the first shortHeaderSize
// bytes of every header with one vectored device read, and the rest of
// the long ones, if the batch holds any, with a second. It stops at the
// first record that fails: the headers before it come back with its
// error, what ReadHeader calls that stop at the first error would
// return.
func (l *Log) ReadHeaders(b *Batch, offs []storage.Offset) ([]Header, error) {
	b.raw = slices.Grow(b.raw[:0], len(offs)*HeaderSize)[:len(offs)*HeaderSize]
	b.bufs = b.bufs[:0]
	for i := range offs {
		b.bufs = append(b.bufs, b.raw[i*HeaderSize:i*HeaderSize+shortHeaderSize])
	}
	n, err := l.readBatch(b, offs)
	b.offs, b.bufs, b.long = b.offs[:0], b.bufs[:0], b.long[:0]
	for i, off := range offs[:n] {
		if hdr := b.raw[i*HeaderSize:]; isLong(hdr[0]) && l.room(off) >= HeaderSize {
			b.offs = append(b.offs, off+shortHeaderSize)
			b.bufs = append(b.bufs, hdr[shortHeaderSize:HeaderSize])
			b.long = append(b.long, i)
		}
	}
	if len(b.long) > 0 {
		if k, lerr := l.readBatch(b, b.offs); lerr != nil {
			n, err = b.long[k], lerr
		}
	}
	b.hdrs = b.hdrs[:0]
	for i, off := range offs[:n] {
		h, herr := l.checkHeader(b.raw[i*HeaderSize:(i+1)*HeaderSize], off)
		if herr != nil {
			return b.hdrs, herr
		}
		b.hdrs = append(b.hdrs, h)
	}
	return b.hdrs, err
}

// AppendBodies appends the key and then the value of each of hdrs'
// records, in order, to dst — what AppendRecord appends after the
// header — and returns the extended slice. It stops at the first
// record that fails: dst comes back extended by the bodies before it,
// with its error. Nothing before len(dst) is written.
func (l *Log) AppendBodies(b *Batch, dst []byte, hdrs []Header) ([]byte, error) {
	base, total := len(dst), 0
	for _, h := range hdrs {
		total += h.keyLen + h.valLen
	}
	dst = slices.Grow(dst, total)[:base+total]
	b.offs, b.bufs = b.offs[:0], b.bufs[:0]
	pos := base
	for _, h := range hdrs {
		n := h.keyLen + h.valLen
		b.offs = append(b.offs, h.off+storage.Offset(h.HeaderLen()))
		b.bufs = append(b.bufs, dst[pos:pos+n:pos+n])
		pos += n
	}
	n, err := l.readBatch(b, b.offs)
	read := base
	for _, buf := range b.bufs[:n] {
		read += len(buf)
	}
	return dst[:read], err
}

// readBatch fills b.bufs[i] from offs[i], for each i, as readAt
// would, and returns how many it filled before the first that failed,
// with that one's error. The ranges in the unsealed tail are copied
// under one hold of mu, and those in sealed segments — each through
// readAt's membership check — come from one vectored device read.
func (l *Log) readBatch(b *Batch, offs []storage.Offset) (int, error) {
	fail := len(offs)
	var err error
	tail, held := l.TailSegment(), false
	if slices.ContainsFunc(offs, func(off storage.Offset) bool { return l.geo.Segment(off) == tail }) {
		l.mu.Lock()
		if held = l.TailSegment() == tail; held { // else sealed since: the device has it all
			for i, off := range offs {
				if l.geo.Segment(off) != tail {
					continue
				}
				within := l.geo.Within(off)
				if within+int64(len(b.bufs[i])) > l.tailLen {
					fail, err = i, fmt.Errorf("%w: tail read past %d", ErrBadOffset, l.tailLen)
					break
				}
				copy(b.bufs[i], l.tailBuf[within:])
			}
		}
		l.mu.Unlock()
	}
	b.devOffs, b.devBufs, b.devRec = b.devOffs[:0], b.devBufs[:0], b.devRec[:0]
	for i, off := range offs[:fail] {
		seg := l.geo.Segment(off)
		if held && seg == tail || len(b.bufs[i]) == 0 {
			continue
		}
		if l.space.Load(seg) == nil {
			fail, err = i, fmt.Errorf("%w: segment %d at offset %#x", ErrReclaimed, seg, off)
			break
		}
		b.devOffs = append(b.devOffs, off)
		b.devBufs = append(b.devBufs, b.bufs[i])
		b.devRec = append(b.devRec, i)
	}
	if n, derr := storage.ReadV(l.dev, b.devOffs, b.devBufs); derr != nil {
		fail, err = b.devRec[n], derr
	}
	return fail, err
}
