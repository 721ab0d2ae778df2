// Package kv defines the basic key-value types and comparison helpers
// shared by every layer of Tebis: the value log, the B+-tree indexes, the
// LSM engine, and the replication protocols.
//
// Tebis uses KV separation: full key-value pairs live in the value log,
// while indexes store only a fixed-size key prefix plus the device offset
// of the record in the log. Prefix comparison resolves most lookups; only
// prefix ties require fetching the full key from the log.
package kv

import (
	"bytes"
	"encoding/binary"
)

// PrefixSize is the number of leading key bytes stored in B+-tree leaves.
// Kreon uses 12-byte prefixes; we keep the same default.
const PrefixSize = 12

// Prefix is the fixed-size key prefix stored in index leaves.
type Prefix [PrefixSize]byte

// MakePrefix extracts the prefix of key, zero-padding short keys.
// Zero padding preserves ordering because a shorter key compares less
// than any extension of it, and 0x00 is the minimum byte: two prefixes
// that differ order their keys, and only equal prefixes leave the order
// to the full keys ("ab" and "ab\x00" tie).
func MakePrefix(key []byte) Prefix {
	var p Prefix
	copy(p[:], key)
	return p
}

// Compare orders two prefixes lexicographically: as two big-endian
// integers, which order like the bytes they are read from and need no
// call. It is the comparison a memtable search or a merge makes per
// entry, where a full-key comparison is the exception.
func (p Prefix) Compare(q Prefix) int {
	a, b := binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(q[:8])
	if a == b {
		a, b = uint64(binary.BigEndian.Uint32(p[8:])), uint64(binary.BigEndian.Uint32(q[8:]))
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Compare orders two full keys lexicographically. It is the single key
// ordering used across the system.
func Compare(a, b []byte) int {
	return bytes.Compare(a, b)
}

// Pair is a full key-value record as stored in the value log.
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the user-data size of the pair (key bytes + value bytes),
// the unit in which the paper expresses dataset size for amplification.
func (p Pair) Size() int {
	return len(p.Key) + len(p.Value)
}

// Clone deep-copies the pair so callers may retain it past the lifetime
// of the buffers it was decoded from.
func (p Pair) Clone() Pair {
	return Pair{
		Key:   append([]byte(nil), p.Key...),
		Value: append([]byte(nil), p.Value...),
	}
}

// Op is the kind of mutation recorded for a key.
type Op uint8

const (
	// OpPut inserts or overwrites a key.
	OpPut Op = iota
	// OpDelete tombstones a key.
	OpDelete
)

// Update is a keyed mutation flowing through the LSM tree: the key's
// prefix plus the value-log location of the full record, or a tombstone.
type Update struct {
	Key       []byte
	Tombstone bool
}
