package ycsb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// OpKind is the type of one generated operation.
type OpKind int

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpRead
	OpUpdate
	OpScan
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Workload names the paper's YCSB phases (Table 1).
type Workload int

// The paper's workloads.
const (
	// LoadA is 100% inserts.
	LoadA Workload = iota
	// RunA is 50% reads, 50% updates (Zipfian).
	RunA
	// RunB is 95% reads, 5% updates (Zipfian).
	RunB
	// RunC is 100% reads (Zipfian).
	RunC
	// RunD is 95% reads, 5% inserts (latest distribution).
	RunD
	// RunE is 95% short scans, 5% inserts (Zipfian start keys). The
	// paper's evaluation stops at Run D; Run E is included because the
	// Tebis protocol supports scans (§3.4.1) and YCSB defines it.
	RunE
	// RunASkew is Run A (50% reads, 50% updates) with UNscrambled Zipfian
	// ranks over ordered keys: hot ranks map to adjacent keys at the
	// bottom of the keyspace, so one region absorbs nearly all traffic.
	// It concentrates load on one region, the case a migration moves
	// whole (ranges are fixed at bootstrap).
	RunASkew
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case LoadA:
		return "Load A"
	case RunA:
		return "Run A"
	case RunB:
		return "Run B"
	case RunC:
		return "Run C"
	case RunD:
		return "Run D"
	case RunE:
		return "Run E"
	case RunASkew:
		return "Run A (skewed)"
	}
	return fmt.Sprintf("Workload(%d)", int(w))
}

// Size classes follow Facebook's production characterization: small,
// medium, and large KV pairs of 33, 123, and 1023 bytes total (Table 2).
const (
	// KeySize is the fixed key length; value sizes make up the rest of
	// each class's total record size.
	KeySize = 24

	// SmallSize, MediumSize, LargeSize are total KV-pair sizes.
	SmallSize  = 33
	MediumSize = 123
	LargeSize  = 1023
)

// SizeMix is a KV-pair size distribution: percentages of small, medium,
// and large pairs (summing to 100).
type SizeMix struct {
	Name                 string
	Small, Medium, Large int
}

// The paper's six size distributions (Table 2).
var (
	MixS  = SizeMix{Name: "S", Small: 100}
	MixM  = SizeMix{Name: "M", Medium: 100}
	MixL  = SizeMix{Name: "L", Large: 100}
	MixSD = SizeMix{Name: "SD", Small: 60, Medium: 20, Large: 20}
	MixMD = SizeMix{Name: "MD", Small: 20, Medium: 60, Large: 20}
	MixLD = SizeMix{Name: "LD", Small: 20, Medium: 20, Large: 60}
)

// AllMixes lists the Table 2 distributions in paper order.
var AllMixes = []SizeMix{MixS, MixM, MixL, MixSD, MixMD, MixLD}

// SmallPercentMix builds the §5.3 mixes: pct% small, the rest split
// evenly between medium and large.
func SmallPercentMix(pct int) SizeMix {
	rest := 100 - pct
	m := rest / 2
	return SizeMix{
		Name:   fmt.Sprintf("S%d", pct),
		Small:  pct,
		Medium: m,
		Large:  rest - m,
	}
}

// recordSize returns the deterministic size class of record i under the
// mix: the class is derived from the record's hash so that every
// operation on a key observes the same size, while proportions hold
// across the keyspace.
func (m SizeMix) recordSize(i uint64) int {
	h := fnvHash64(i^0x9e3779b97f4a7c15) % 100
	switch {
	case h < uint64(m.Small):
		return SmallSize
	case h < uint64(m.Small+m.Medium):
		return MediumSize
	default:
		return LargeSize
	}
}

// AvgRecordSize returns the mix's expected KV-pair size in bytes.
func (m SizeMix) AvgRecordSize() float64 {
	return (float64(m.Small)*SmallSize + float64(m.Medium)*MediumSize + float64(m.Large)*LargeSize) / 100
}

// DatasetBytes returns the total user-data size of n records (the
// "Dataset Size" column of Table 2).
func (m SizeMix) DatasetBytes(n uint64) uint64 {
	var total uint64
	// Exact per-record accounting is O(n); sample large n.
	if n <= 1_000_000 {
		for i := uint64(0); i < n; i++ {
			total += uint64(m.recordSize(i))
		}
		return total
	}
	return uint64(m.AvgRecordSize() * float64(n))
}

// Key builds the canonical key of record i: an 8-byte FNV hash prefix
// (spreading records uniformly over prefix-partitioned regions, like
// YCSB's hashed key order) followed by the record number.
func Key(i uint64) []byte {
	k := make([]byte, KeySize)
	binary.BigEndian.PutUint64(k[0:8], fnvHash64(i))
	copy(k[8:], fmt.Sprintf("%016d", i))
	return k
}

// OrderedKey builds the ordered key of record i: big-endian record
// number first, so record order IS key order. Under a prefix-partitioned
// region map every ordered key lands in the first region, which is
// exactly what RunASkew wants: a workload whose heat concentrates on one
// region.
func OrderedKey(i uint64) []byte {
	k := make([]byte, KeySize)
	binary.BigEndian.PutUint64(k[0:8], i)
	copy(k[8:], fmt.Sprintf("%016d", i))
	return k
}

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte // inserts and updates only
}

// Config describes one workload phase.
type Config struct {
	// Workload selects the phase.
	Workload Workload
	// Records is the number of distinct records (inserted by Load A).
	Records uint64
	// Mix is the KV size distribution.
	Mix SizeMix
	// Seed makes the stream deterministic.
	Seed int64
	// Ordered switches key construction from hashed (Key) to ordered
	// (OrderedKey). RunASkew implies it, and a Load A phase that feeds a
	// RunASkew phase must set it so both phases address the same records.
	Ordered bool
}

// Generator produces the operation stream of one workload phase. Not
// safe for concurrent use; create one per client thread with distinct
// seeds (YCSB's per-thread generators).
type Generator struct {
	cfg Config
	rnd *rand.Rand
	zip *ScrambledZipfian
	raw *Zipfian // RunASkew: unscrambled, hot ranks stay adjacent
	lat *Latest

	loadNext uint64 // next record to insert (Load A)
	inserted uint64 // total records existing (Run D grows it)
	valBuf   []byte
}

// NewGenerator builds the op stream for cfg.
func NewGenerator(cfg Config) *Generator {
	g := &Generator{
		cfg:      cfg,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
		inserted: cfg.Records,
		valBuf:   make([]byte, LargeSize),
	}
	switch cfg.Workload {
	case RunA, RunB, RunC, RunE:
		g.zip = NewScrambledZipfian(cfg.Records)
	case RunASkew:
		g.cfg.Ordered = true
		g.raw = NewZipfian(cfg.Records)
	case RunD:
		g.lat = NewLatest(cfg.Records)
	}
	return g
}

// key builds record i's key under the configured key order.
func (g *Generator) key(i uint64) []byte {
	if g.cfg.Ordered {
		return OrderedKey(i)
	}
	return Key(i)
}

// SetLoadRange restricts Load A generation to records [from, to) — used
// to shard the load phase across client threads.
func (g *Generator) SetLoadRange(from, to uint64) {
	g.loadNext = from
	g.inserted = to
}

// value fills the value for record i (size class minus key size), with
// contents derived from the record number.
func (g *Generator) value(i uint64) []byte {
	size := g.cfg.Mix.recordSize(i) - KeySize
	v := g.valBuf[:size]
	seed := fnvHash64(i)
	for j := range v {
		v[j] = byte('a' + (seed+uint64(j))%26)
	}
	return v
}

// Next returns the next operation, and false when the phase is complete
// (Load A ends after its records; Run phases are unbounded).
func (g *Generator) Next() (Op, bool) {
	switch g.cfg.Workload {
	case LoadA:
		if g.loadNext >= g.inserted {
			return Op{}, false
		}
		i := g.loadNext
		g.loadNext++
		return Op{Kind: OpInsert, Key: g.key(i), Value: g.value(i)}, true

	case RunA, RunB, RunC:
		readPct := map[Workload]int{RunA: 50, RunB: 95, RunC: 100}[g.cfg.Workload]
		i := g.zip.Next(g.rnd)
		if g.rnd.Intn(100) < readPct {
			return Op{Kind: OpRead, Key: g.key(i)}, true
		}
		return Op{Kind: OpUpdate, Key: g.key(i), Value: g.value(i)}, true

	case RunASkew:
		i := g.raw.Next(g.rnd)
		if i >= g.cfg.Records {
			i = g.cfg.Records - 1
		}
		if g.rnd.Intn(100) < 50 {
			return Op{Kind: OpRead, Key: g.key(i)}, true
		}
		return Op{Kind: OpUpdate, Key: g.key(i), Value: g.value(i)}, true

	case RunD:
		if g.rnd.Intn(100) < 95 {
			i := g.lat.Next(g.rnd, g.inserted)
			return Op{Kind: OpRead, Key: g.key(i)}, true
		}
		i := g.inserted
		g.inserted++
		return Op{Kind: OpInsert, Key: g.key(i), Value: g.value(i)}, true

	case RunE:
		if g.rnd.Intn(100) < 95 {
			i := g.zip.Next(g.rnd)
			return Op{Kind: OpScan, Key: g.key(i)}, true
		}
		i := g.inserted
		g.inserted++
		return Op{Kind: OpInsert, Key: g.key(i), Value: g.value(i)}, true
	}
	return Op{}, false
}
