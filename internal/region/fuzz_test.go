package region

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode: a region map arrives from the coordination service and
// from peers, so Decode sees whatever bytes they hold. It must never
// panic and must fail with ErrBadMap; a map it accepts survives Encode
// and Decode unchanged.
func FuzzDecode(f *testing.F) {
	m, err := Partition(4, []string{"s0", "s1", "s2"}, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Split(1, []byte{0x50, 0x00, 'k'}, m.NextID()); err != nil {
		f.Fatal(err)
	}
	enc := m.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:12])
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
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted map: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("map changed through Encode and Decode:\n got %+v\nwant %+v", again, m)
		}
	})
}
