package integrity

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestTrailerRoundTrip(t *testing.T) {
	buf := make([]byte, TrailerSize)
	want := Trailer{Kind: KindIndex, PayloadLen: 65520, CRC: 0xDEADBEEF, Seq: 42}
	EncodeTrailer(buf, want)
	got, err := DecodeTrailer(buf, 65536)
	if err != nil {
		t.Fatalf("DecodeTrailer: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestDecodeTrailerNoFrame(t *testing.T) {
	buf := make([]byte, TrailerSize)
	if _, err := DecodeTrailer(buf, 65536); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("zeroed trailer: got %v want ErrNoFrame", err)
	}
	if _, err := DecodeTrailer(buf[:4], 65536); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short trailer: got %v want ErrBadFrame", err)
	}
}

func TestDecodeTrailerBadPayloadLen(t *testing.T) {
	buf := make([]byte, TrailerSize)
	EncodeTrailer(buf, Trailer{Kind: KindLog, PayloadLen: 65536 - TrailerSize + 1})
	if _, err := DecodeTrailer(buf, 65536); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized payload: got %v want ErrBadFrame", err)
	}
	// Without a segment size the bound is skipped.
	if _, err := DecodeTrailer(buf, 0); err != nil {
		t.Fatalf("unbounded decode: %v", err)
	}
}

// TestMagicTerminatesLogScan pins the property the package comment
// relies on: read as a value-log record header, the trailer's first
// byte marks the long form, whose key length exceeds any framed segment
// (a frame's payload length has 24 bits).
func TestMagicTerminatesLogScan(t *testing.T) {
	buf := make([]byte, TrailerSize)
	EncodeTrailer(buf, Trailer{})
	if magic := binary.LittleEndian.Uint32(buf[0:4]); magic != FrameMagic {
		t.Fatalf("trailer does not start with magic: %#x", magic)
	}
	if buf[0]&0x80 == 0 {
		t.Fatalf("magic's first byte %#x reads as a short record header", buf[0])
	}
	if keyLen := binary.BigEndian.Uint32(buf[0:4]) &^ (1 << 31); keyLen < 1<<24 {
		t.Fatalf("magic's long-header key length %#x too small to terminate a scan", keyLen)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindOpaque: "opaque", KindLog: "log", KindIndex: "index", Kind(9): "kind(9)"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q want %q", k, got, want)
		}
	}
}
