package wire

import (
	"bytes"
	"testing"
)

// oldIndexSegmentEncode reproduces the pre-codec IndexSegment payload:
// it stops after DataLen (no Codec trailer). kind is the byte behind the
// level, which older primaries filled in and decoders now skip.
func oldIndexSegmentEncode(r IndexSegment, kind byte) []byte {
	var dst []byte
	dst = appendU32(dst, uint32(r.RegionID))
	dst = appendU64(dst, r.JobID)
	dst = append(dst, r.DstLevel, kind)
	dst = appendU32(dst, r.PrimarySeg)
	return appendU32(dst, r.DataLen)
}

// TestShipCodecFrameCompat pins the wire-compatibility argument for the
// ship-codec payload fields (mirroring TestTraceIDFrameCompat): the new
// fields ride at the END of each payload, so old-format payloads decode
// with Codec 0 — raw, uncompressed bytes, the legacy behavior — and
// new-format payloads differ from old ones only in trailing bytes an
// old decoder never read. The 27-byte payload of the page-delta era (a
// delta base behind the codec byte) decodes too, its base ignored. The
// reserved byte behind the level is written as 0 and skipped on decode,
// so a payload whose older primary set it decodes the same.
func TestShipCodecFrameCompat(t *testing.T) {
	seg := IndexSegment{
		RegionID:   3,
		JobID:      77,
		DstLevel:   2,
		PrimarySeg: 12,
		DataLen:    65536,
	}

	// Backward: an old (pre-codec) payload decodes with Codec 0 and
	// every other field intact, whatever its reserved byte holds.
	old := oldIndexSegmentEncode(seg, 0)
	for _, kind := range []byte{0, 1} {
		got, err := DecodeIndexSegment(oldIndexSegmentEncode(seg, kind))
		if err != nil {
			t.Fatal(err)
		}
		if got != seg {
			t.Fatalf("old payload with reserved byte %d decodes to %+v, want %+v", kind, got, seg)
		}
	}

	// Forward: a new payload is the old payload plus trailing bytes an
	// old decoder never reads.
	coded := seg
	coded.Codec = 1
	enc := coded.Encode(nil)
	if !bytes.Equal(enc[:len(old)], old) {
		t.Fatalf("new payload prefix differs from old encoding")
	}
	got, err := DecodeIndexSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != coded {
		t.Fatalf("new payload decode = %+v, want %+v", got, coded)
	}

	// The page-delta era's payload: the codec byte, then a u32 base.
	deltaEra := appendU32(append(oldIndexSegmentEncode(seg, 1), 1), 9)
	if len(deltaEra) != 27 {
		t.Fatalf("delta-era payload is %d bytes, want 27", len(deltaEra))
	}
	got, err = DecodeIndexSegment(deltaEra)
	if err != nil {
		t.Fatal(err)
	}
	if got != coded {
		t.Fatalf("delta-era payload decode = %+v, want %+v", got, coded)
	}
}

// TestMovedRidesInTheLevelByte: CompactionDone.Moved takes DstLevel's top
// bit, as CompactionStart.Filter does, so a done that moved nothing is
// the payload an older primary sent, byte for byte, and a move's is no
// longer than a merge's.
func TestMovedRidesInTheLevelByte(t *testing.T) {
	merged := CompactionDone{RegionID: 3, JobID: 77, SrcLevel: 2, DstLevel: 3, Root: 1 << 33, NumKeys: 5, Watermark: 99}
	var old []byte
	old = appendU32(old, uint32(merged.RegionID))
	old = appendU64(old, merged.JobID)
	old = append(old, merged.SrcLevel, merged.DstLevel)
	old = appendU64(old, merged.Root)
	old = appendU32(old, merged.NumKeys)
	old = appendU64(old, merged.Watermark)
	if enc := merged.Encode(nil); !bytes.Equal(enc, old) {
		t.Fatalf("a merge's done encodes to %x, an older primary's to %x", enc, old)
	}
	moved := merged
	moved.Moved = true
	enc := moved.Encode(nil)
	if len(enc) != len(old) || len(enc) != moved.Size() {
		t.Fatalf("a move's done is %d bytes, a merge's %d", len(enc), len(old))
	}
	if got, err := DecodeCompactionDone(enc); err != nil || got != moved {
		t.Fatalf("move done decodes to %+v %v, want %+v", got, err, moved)
	}
	if got, err := DecodeCompactionDone(old); err != nil || got != merged {
		t.Fatalf("older done decodes to %+v %v, want %+v", got, err, merged)
	}
}
