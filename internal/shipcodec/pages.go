package shipcodec

import (
	"encoding/binary"
	"fmt"
	"io"

	"tebis/internal/btree"
)

// The page stream, a full frame's payload:
//
//	[pageSize uvarint][residueOff u32] item* residue
//	item = 0x00 packed-leaf          one page, in btree.PackLeaf's form
//	     | n uvarint (n >= 1)        the next n pages are residue
//
// The items name the image's pages in order. Residue pages — whatever
// btree.PackLeaf refused, the image's short last page among them — are
// not in line: their bytes, concatenated in page order, are one DEFLATE
// stream that starts residueOff bytes into the payload, where the items
// end, and runs to the payload's end. DEFLATE stores what it cannot
// shrink, so the residue needs no stored form of its own; a payload that
// does not come out smaller than the image is dropped for a stored frame.

// maxPageSize bounds the page size a stream may name: a packed leaf of a
// few bytes rebuilds one whole page, so this is also the most a decoder
// allocates on the word of so few.
const maxPageSize = 1 << 16

// decodeHeadroom is how many times its own length a payload may claim to
// decode to before Decode stops taking the claim on trust and grows the
// output only as the bytes arrive. Index images frame to about 0.83 of
// their (columnar) size, and the densest leaf a Builder writes — rows of
// one-byte offsets and no key bytes — to about a sixth, so a shipped
// segment's image is allocated once, at its exact size.
const decodeHeadroom = 8

// appendPageStream appends the page stream of raw to frame, whose
// payload it becomes.
func appendPageStream(frame, raw []byte, pageSize int) ([]byte, error) {
	start := len(frame)
	frame = binary.AppendUvarint(frame, uint64(pageSize))
	offAt := len(frame)
	frame = append(frame, 0, 0, 0, 0)
	var d *deflater // taken on the first refused page: an image of leaves touches none
	run := uint64(0)
	for off := 0; off < len(raw); off += pageSize {
		page := raw[off:min(off+pageSize, len(raw))]
		if len(page) == pageSize {
			// The run a packed page ends is written before it; a refusal
			// takes both back.
			mark := len(frame)
			if run > 0 {
				frame = binary.AppendUvarint(frame, run)
			}
			var ok bool
			if frame, ok = btree.PackLeaf(append(frame, 0), page); ok {
				run = 0
				continue
			}
			frame = frame[:mark]
		}
		if d == nil {
			d = deflaters.Get().(*deflater)
			defer deflaters.Put(d)
			d.buf.Reset()
			d.zw.Reset(&d.buf)
		}
		if _, err := d.zw.Write(page); err != nil {
			return nil, err
		}
		run++
	}
	if run > 0 {
		frame = binary.AppendUvarint(frame, run)
	}
	binary.LittleEndian.PutUint32(frame[offAt:], uint32(len(frame)-start))
	if d != nil {
		if err := d.zw.Close(); err != nil {
			return nil, err
		}
		frame = append(frame, d.buf.Bytes()...)
	}
	return frame, nil
}

// decodePageStream rebuilds the rawLen-byte image a page stream
// describes. rawLen is the frame header's claim: it bounds the output and
// must be met exactly, but the buffer is sized from it only as far as
// decodeHeadroom times the payload and grows past that only behind bytes
// the stream has produced.
func decodePageStream(payload []byte, rawLen int) ([]byte, error) {
	pageSize, n := binary.Uvarint(payload)
	if n <= 0 || pageSize == 0 || pageSize > maxPageSize || len(payload) < n+4 {
		return nil, fmt.Errorf("%w: page stream header", ErrCorrupt)
	}
	residueOff := int(binary.LittleEndian.Uint32(payload[n:]))
	if residueOff < n+4 || residueOff > len(payload) {
		return nil, fmt.Errorf("%w: residue at %d of a %d-byte page stream", ErrCorrupt, residueOff, len(payload))
	}
	items, residue := payload[n+4:residueOff], payload[residueOff:]

	var f *inflater // opened by the first residue run
	out := make([]byte, 0, min(rawLen, decodeHeadroom*len(payload)+HeaderSize))
	for len(items) > 0 {
		run, n := binary.Uvarint(items)
		if n <= 0 {
			return nil, fmt.Errorf("%w: page stream item", ErrCorrupt)
		}
		items = items[n:]
		left := uint64(rawLen - len(out))
		if run == 0 {
			if left < pageSize {
				return nil, fmt.Errorf("%w: packed page past the declared %d bytes", ErrCorrupt, rawLen)
			}
			out = grow(out, int(pageSize), rawLen)
			used, err := btree.UnpackLeaf(out[len(out):len(out)+int(pageSize)], items)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			items, out = items[used:], out[:len(out)+int(pageSize)]
			continue
		}
		// Only the image's last page may be short, and none is empty.
		if run > left || (run-1)*pageSize >= left {
			return nil, fmt.Errorf("%w: %d residue pages past the declared %d bytes", ErrCorrupt, run, rawLen)
		}
		if f == nil {
			f = inflaters.Get().(*inflater)
			defer inflaters.Put(f)
			if err := f.open(residue); err != nil {
				return nil, err
			}
		}
		for want := int(min(run*pageSize, left)); want > 0; {
			out = grow(out, 1, rawLen)
			m, err := io.ReadFull(f.zr, out[len(out):min(len(out)+want, cap(out))])
			out, want = out[:len(out)+m], want-m
			if err != nil {
				return nil, fmt.Errorf("%w: residue ends %d bytes short: %v", ErrCorrupt, want, err)
			}
		}
	}
	if len(out) != rawLen {
		return nil, fmt.Errorf("%w: page stream holds %d bytes, declared %d", ErrCorrupt, len(out), rawLen)
	}
	// The residue must end where its last page did.
	if f == nil {
		if len(residue) != 0 {
			return nil, fmt.Errorf("%w: %d bytes of residue no page names", ErrCorrupt, len(residue))
		}
	} else if m, err := f.zr.Read(f.one[:]); m != 0 || err != io.EOF {
		return nil, fmt.Errorf("%w: residue runs past its pages (%v)", ErrCorrupt, err)
	}
	return out, nil
}

// grow returns out with room for n more bytes, at least doubling a full
// buffer but never past limit (the caller has checked that n fit under
// it). A buffer is only ever full of bytes the stream produced, so the
// total stays within twice those plus the first allocation.
func grow(out []byte, n, limit int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	grown := make([]byte, len(out), min(limit, max(2*cap(out), len(out)+n)))
	copy(grown, out)
	return grown
}
