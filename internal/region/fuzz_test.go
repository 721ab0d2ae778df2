package region

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode: a region map arrives from the coordination service and
// from peers, so Decode sees whatever bytes they hold. It must never
// panic and must fail with ErrBadMap; a map it accepts is exactly what
// Encode writes for it, byte for byte — there is one encoding per map.
func FuzzDecode(f *testing.F) {
	m, err := Partition(4, []string{"s0", "s1", "s2"}, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := m.SetPrimary(1, "s0"); err != nil {
		f.Fatal(err)
	}
	enc := m.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:12])
	f.Add(append(enc[:len(enc):len(enc)], 0))
	f.Add((&Map{Version: 1}).Encode())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Decode(p)
		if err != nil {
			if !errors.Is(err, ErrBadMap) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if again := m.Encode(); !bytes.Equal(again, p) {
			t.Fatalf("accepted input does not re-encode to itself:\n got %x\nwant %x", again, p)
		}
	})
}
