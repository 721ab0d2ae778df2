// Package metrics provides the measurement machinery for the Tebis
// reproduction: a deterministic CPU cycle cost model mirroring the
// paper's Table 3 component breakdown, amplification calculators, a
// latency percentile recorder for the tail-latency figures, and the
// per-subsystem stats structs. Each stats type declares the metric
// families it exports beside its counters by implementing Source
// (source.go); the package imports nothing from this module.
//
// The paper measures CPU with mpstat/perf on real Xeons. This repo runs
// as an in-process simulation, so instead we *meter the work actually
// performed* by each component — KVs merged, bytes read/written, RDMA
// messages posted, pointers rewritten — and convert it to cycles with a
// fixed cost model (DESIGN.md "Packages and substitutions"). Relative
// results between Send-Index and Build-Index then follow from which work
// each scheme performs where, exactly as in the paper.
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Component identifies one row of the paper's Table 3 cycle breakdown.
type Component int

// Table 3 components.
const (
	// CompInsertL0 covers inserting KV pairs into the L0 memtable plus
	// persisting the value log.
	CompInsertL0 Component = iota
	// CompLogReplication covers RDMA-writing KV records into backup
	// buffers (charged to the primary only: writes are one-sided).
	CompLogReplication
	// CompCompaction covers merge-sorting plus compaction read/write
	// I/O, wherever a compaction runs (primary always; backups only
	// under Build-Index).
	CompCompaction
	// CompSendIndex covers shipping built index segments to backups
	// (primary side; zero under Build-Index).
	CompSendIndex
	// CompRewriteIndex covers pointer rewriting of received index
	// segments (backup side; zero under Build-Index).
	CompRewriteIndex
	// CompReply covers server-to-client replies.
	CompReply
	// CompOther covers message detection, task scheduling, request
	// parsing, and read/scan service.
	CompOther

	// NumComponents is the number of breakdown rows.
	NumComponents
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case CompInsertL0:
		return "Insert in L0"
	case CompLogReplication:
		return "KV log replication"
	case CompCompaction:
		return "Compaction"
	case CompSendIndex:
		return "Send index"
	case CompRewriteIndex:
		return "Rewrite index"
	case CompReply:
		return "Server to client reply"
	case CompOther:
		return "Other"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Cycles accumulates simulated CPU cycles per component. All methods
// are safe for concurrent use and nil-safe: a nil *Cycles discards
// charges and snapshots to zero, so unmetered nodes need no setup.
type Cycles struct {
	c [NumComponents]atomic.Uint64
}

// Charge adds n cycles to component comp.
func (cy *Cycles) Charge(comp Component, n uint64) {
	if cy == nil {
		return
	}
	cy.c[comp].Add(n)
}

// Breakdown is a snapshot of per-component cycle totals.
type Breakdown [NumComponents]uint64

// Snapshot returns the current totals.
func (cy *Cycles) Snapshot() Breakdown {
	var b Breakdown
	if cy == nil {
		return b
	}
	for i := range b {
		b[i] = cy.c[i].Load()
	}
	return b
}

// Collect implements Source: the Table 3 breakdown, one series per
// component.
func (cy *Cycles) Collect() []Family {
	if cy == nil {
		return nil
	}
	f := Counter("tebis_cycles_total", "Simulated CPU cycles charged per Table 3 component.")
	for c, n := range cy.Snapshot() {
		f.Samples = append(f.Samples, Labeled("component", Component(c).String(), float64(n)))
	}
	return []Family{f}
}

// Reset zeroes all counters.
func (cy *Cycles) Reset() {
	if cy == nil {
		return
	}
	for i := range cy.c {
		cy.c[i].Store(0)
	}
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Total returns the sum over all components.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// PerOp divides every component by the operation count.
func (b Breakdown) PerOp(ops uint64) Breakdown {
	if ops == 0 {
		return Breakdown{}
	}
	var r Breakdown
	for i := range b {
		r[i] = b[i] / ops
	}
	return r
}

// String renders the breakdown as a Table 3 style listing.
func (b Breakdown) String() string {
	var sb strings.Builder
	for i := Component(0); i < NumComponents; i++ {
		fmt.Fprintf(&sb, "%-24s %12d\n", i.String(), b[i])
	}
	fmt.Fprintf(&sb, "%-24s %12d\n", "Total", b.Total())
	return sb.String()
}

// CostModel converts metered work into cycles. The defaults are
// calibrated so that the simulated Load A / SD breakdown lands in the
// neighbourhood of the paper's Table 3; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
type CostModel struct {
	// L0InsertBase is the memtable insert cost per operation.
	L0InsertBase uint64
	// L0InsertPerByte is the value-log append (memcpy) cost per record
	// byte.
	L0InsertPerByte uint64
	// WriteIOPerKB is the CPU cost of issuing device writes, per KiB.
	WriteIOPerKB uint64
	// ReadIOPerKB is the CPU cost of issuing device reads, per KiB.
	ReadIOPerKB uint64
	// MergePerKV is the in-memory sort/merge cost per KV during
	// compaction.
	MergePerKV uint64
	// RDMAPost is the fixed cost of posting one RDMA write.
	RDMAPost uint64
	// RDMAPerKB is the per-KiB cost of an RDMA write at the initiator.
	RDMAPerKB uint64
	// RewritePerPointer is the cost of rebasing one device offset in a
	// received index segment.
	RewritePerPointer uint64
	// ReplyPerMessage is the fixed server-to-client reply cost.
	ReplyPerMessage uint64
	// PollPerMessage covers rendezvous polling, task scheduling and
	// request parsing per incoming message.
	PollPerMessage uint64
	// GetPerLevel is the index walk cost per level visited by a read.
	GetPerLevel uint64
}

// DefaultCostModel returns the calibrated default model.
func DefaultCostModel() CostModel {
	return CostModel{
		L0InsertBase:      2300,
		L0InsertPerByte:   4,
		WriteIOPerKB:      700,
		ReadIOPerKB:       1400,
		MergePerKV:        950,
		RDMAPost:          900,
		RDMAPerKB:         450,
		RewritePerPointer: 35,
		ReplyPerMessage:   740,
		// The paper's "Other" row (message detection, task scheduling,
		// request parsing) dominates its Table 3 totals (~22 Kcycles of
		// 30-39 K); this constant is calibrated so the simulated
		// breakdown has comparable proportions.
		PollPerMessage: 12_000,
		GetPerLevel:    1800,
	}
}

// WriteIO returns the cycle cost of writing n bytes.
func (m CostModel) WriteIO(n int) uint64 {
	return uint64(n) * m.WriteIOPerKB / 1024
}

// ReadIO returns the cycle cost of reading n bytes.
func (m CostModel) ReadIO(n int) uint64 {
	return uint64(n) * m.ReadIOPerKB / 1024
}

// RDMAWrite returns the initiator-side cycle cost of one RDMA write of
// n bytes. The target side costs zero: writes are one-sided.
func (m CostModel) RDMAWrite(n int) uint64 {
	return m.RDMAPost + uint64(n)*m.RDMAPerKB/1024
}

// L0Insert returns the cost of one L0 insert of a record of n bytes.
func (m CostModel) L0Insert(n int) uint64 {
	return m.L0InsertBase + uint64(n)*m.L0InsertPerByte
}
