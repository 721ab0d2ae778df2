package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMakePrefixPadding(t *testing.T) {
	p := MakePrefix([]byte("ab"))
	want := Prefix{'a', 'b'}
	if p != want {
		t.Fatalf("MakePrefix(ab) = %v, want %v", p, want)
	}
}

func TestMakePrefixTruncation(t *testing.T) {
	long := []byte("abcdefghijklmnop")
	p := MakePrefix(long)
	if !bytes.Equal(p[:], long[:PrefixSize]) {
		t.Fatalf("MakePrefix long = %v, want first %d bytes of key", p, PrefixSize)
	}
}

func TestPrefixCompareMatchesKeyCompare(t *testing.T) {
	// Property: prefixes that differ order their keys — what lets a merge
	// or a scan read full keys on ties only.
	f := func(a, b []byte) bool {
		pa, pb := MakePrefix(a), MakePrefix(b)
		if pa == pb {
			return true
		}
		return sign(pa.Compare(pb)) == sign(Compare(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixCompareIsBytewise(t *testing.T) {
	// Compare reads the prefix as integers; it must order like the bytes:
	// at every position, across the sign bit, and on random pairs.
	for i := 0; i < PrefixSize; i++ {
		for _, pair := range [][2]byte{{0x00, 0x01}, {0x7f, 0x80}, {0x80, 0xff}, {0x01, 0xff}} {
			var lo, hi Prefix
			lo[i], hi[i] = pair[0], pair[1]
			for j := i + 1; j < PrefixSize; j++ {
				lo[j], hi[j] = 0xff, 0x00 // later bytes must not outvote byte i
			}
			if lo.Compare(hi) != -1 || hi.Compare(lo) != 1 || lo.Compare(lo) != 0 {
				t.Fatalf("byte %d, %#x against %#x: Compare = %d, %d, %d", i, pair[0], pair[1], lo.Compare(hi), hi.Compare(lo), lo.Compare(lo))
			}
		}
	}
	f := func(p, q Prefix) bool { return p.Compare(q) == bytes.Compare(p[:], q[:]) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixOrderingConsistentForShortKeys(t *testing.T) {
	// Zero padding must not reorder keys shorter than the prefix.
	a, b := []byte("a"), []byte("a\x00")
	pa, pb := MakePrefix(a), MakePrefix(b)
	if pa.Compare(pb) != 0 {
		t.Fatalf("prefixes of %q and %q should tie", a, b)
	}
	if Compare(a, b) >= 0 {
		t.Fatalf("full-key compare should break the tie with %q < %q", a, b)
	}
}

func TestPairSizeAndClone(t *testing.T) {
	p := Pair{Key: []byte("key"), Value: []byte("value")}
	if p.Size() != 8 {
		t.Fatalf("Size = %d, want 8", p.Size())
	}
	c := p.Clone()
	c.Key[0] = 'X'
	if p.Key[0] != 'k' {
		t.Fatal("Clone aliases original key")
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	f := func(a, b, c []byte) bool {
		// Antisymmetry and transitivity on a sample.
		if sign(Compare(a, b)) != -sign(Compare(b, a)) {
			return false
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
