package lsm

import (
	"bytes"
	"math"
	"slices"
	"sync"

	"tebis/internal/btree"
	"tebis/internal/kv"
	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/storage"
	"tebis/internal/vlog"
)

// The foreground read path (DESIGN.md "Data path"): a record a get or a
// scan returns is read from the value log once — its header is not
// repeated, its key is not read twice — and lands where it leaves: in
// the caller's destination for a get, in one reused buffer for a scan.

// reader is the memory one Get or Scan reads the value log through,
// pooled so that neither allocates per call: the buffer a candidate key
// (get, seek) or a returned record (scan) is read into, the header that
// came with the last key, and a scan's cursors.
type reader struct {
	db  *DB
	buf []byte
	hdr vlog.Header // of the record buf's key was read from; zero if none

	cursors []cursor
	mem     []memCursor
	trees   []treeCursor

	// A scan's batch: its winners' offsets, the winners merged through
	// each, and the log's memory for reading their records.
	offs  []storage.Offset
	upto  []int
	batch vlog.Batch
}

var readerPool = sync.Pool{New: func() any { return &reader{buf: make([]byte, 0, 256)} }}

func (db *DB) acquireReader() *reader {
	r := readerPool.Get().(*reader)
	r.db = db
	return r
}

// release returns r to the pool holding memory but no references: not
// the engine, not a memtable node, not a cached index node.
func (r *reader) release() {
	r.db, r.hdr = nil, vlog.Header{}
	clear(r.cursors)
	clear(r.mem)
	for i := range r.trees {
		r.trees[i].reset()
	}
	r.cursors, r.mem, r.trees = r.cursors[:0], r.mem[:0], r.trees[:0]
	readerPool.Put(r)
}

// fullKey is the btree.FullKeyReader of the foreground paths: it reads
// the key of the record at off into r.buf, over the previous one, and
// remembers the header that came with it. The key is good until the
// next call — Tree.Get and Iterator.SeekGE compare a candidate and drop it.
func (r *reader) fullKey(off storage.Offset) ([]byte, error) {
	var err error
	r.buf, r.hdr, err = r.db.log.AppendKey(r.buf[:0], off)
	if err != nil {
		return nil, err
	}
	r.db.charge(metrics.CompOther, r.db.cost.ReadIO(r.hdr.HeaderLen()+len(r.buf)))
	return r.buf, nil
}

// header returns the header of the record at off: the one fullKey has
// just read when the lookup ended on that candidate (a level hit), read
// now otherwise (a memtable hit, whose key needed no log read).
func (r *reader) header(off storage.Offset) (vlog.Header, error) {
	if r.hdr.KeyLen() != 0 && r.hdr.Off() == off {
		return r.hdr, nil
	}
	h, err := r.db.log.ReadHeader(off, r.buf[:cap(r.buf)])
	if err == nil {
		r.db.charge(metrics.CompOther, r.db.cost.ReadIO(h.HeaderLen()))
	}
	return h, err
}

// locateLocked finds the newest index entry for key: the active L0, the
// frozen table, then the levels, whose prefix ties
// fullKey resolves. A level whose filter rules the key's prefix out is
// skipped, not walked. cost is the lookup's charge: a table looked in
// or a tree walked costs GetPerLevel, a filter probe FilterPerKey. A
// lookup that reaches the levels is counted in stats, which may be nil.
// Caller holds db.mu (read or write).
func (db *DB) locateLocked(key []byte, fullKey btree.FullKeyReader, stats *metrics.LookupStats) (off storage.Offset, tomb, found bool, cost uint64, err error) {
	tables := 1
	if e, ok := db.l0.Get(key); ok {
		return e.Off, e.Tombstone, true, db.cost.GetPerLevel, nil
	}
	if db.frozen != nil {
		tables++
		if e, ok := db.frozen.mt.Get(key); ok {
			return e.Off, e.Tombstone, true, uint64(tables) * db.cost.GetPerLevel, nil
		}
	}
	prefix := kv.MakePrefix(key)
	probes, walked, skipped, missed := 0, 0, 0, 0
	for i := 1; i < len(db.levels) && !found && err == nil; i++ {
		lv := db.levels[i]
		if lv == nil {
			continue
		}
		filter := lv.built.Filter
		if filter != nil {
			probes++
			if !filter.MayContain(&prefix) {
				skipped++
				continue
			}
		}
		walked++
		var tied bool
		off, tomb, found, tied, err = lv.tree.Lookup(key, fullKey)
		if filter != nil && !tied {
			missed++
		}
	}
	stats.Record(walked, skipped, missed)
	cost = uint64(tables+walked)*db.cost.GetPerLevel + uint64(probes)*db.cost.FilterPerKey
	return off, tomb, found, cost, err
}

// Get returns the value for key in a slice of its own. found is false
// for absent keys and tombstones.
func (db *DB) Get(key []byte) (value []byte, found bool, err error) {
	return db.GetAppend(nil, key)
}

// GetAppend appends the value for key to dst and returns the extended
// slice; dst comes back unchanged when the key is not found.
func (db *DB) GetAppend(dst, key []byte) (out []byte, found bool, err error) {
	out, _, found, err = db.GetRange(dst, key, Range{N: math.MaxInt})
	return out, found, err
}

// Range is the part of a value GetRange reads.
type Range struct {
	// Record, when not storage.NilOffset, is the log record a read in
	// parts started on: the rest is read from that record, not from
	// whatever the key's newest record is now, so the parts are one
	// version's.
	Record storage.Offset
	// From is the first value byte read, N the most bytes read.
	From, N int
	// Tail is what a range that stops short of the value's end gives up
	// of N, for its caller to append behind it (a partial reply's
	// suffix): a range that reaches the end reads up to N bytes.
	Tail int
}

// GetRange appends the part rg names of key's value to dst, and returns
// the extended slice and the header of the record it was read from,
// which says how long the whole value is (ValLen) and where the record
// is (Off): a caller with room for part of a value reads that part only,
// and names the record when it comes back for the rest. The range is
// clipped to the value. Nothing before len(dst) is written.
//
// A value in a level costs three log reads — the header and key that
// resolved the prefix tie, then the value; one in L0, whose key the
// memtable holds, two — the header, then the value. The rest of a
// record the key has since been put over costs the record's header and
// key too, read to check that it is key's; a record that is gone (its
// segment reclaimed, or a failover since) or is not key's is not found.
func (db *DB) GetRange(dst, key []byte, rg Range) (out []byte, h vlog.Header, found bool, err error) {
	r := db.acquireReader()
	defer r.release()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return dst, vlog.Header{}, false, ErrClosed
	}
	off, tomb, found, cost, err := db.locateLocked(key, r.fullKey, db.lookups)
	if err != nil {
		return dst, vlog.Header{}, false, err
	}
	db.charge(metrics.CompOther, cost)
	switch {
	case rg.Record != storage.NilOffset && (!found || tomb || off != rg.Record):
		if h, found = r.recordOf(key, rg.Record); !found {
			return dst, vlog.Header{}, false, nil
		}
	case !found || tomb:
		return dst, vlog.Header{}, false, nil
	default:
		if h, err = r.header(off); err != nil {
			return dst, vlog.Header{}, false, err
		}
	}
	if h.Tombstone() {
		return dst, vlog.Header{}, false, nil
	}
	n := rg.N
	if h.ValLen()-rg.From > n {
		n -= rg.Tail
	}
	out, err = db.log.AppendValue(dst, h, rg.From, n)
	if err != nil {
		return dst, vlog.Header{}, false, err
	}
	db.charge(metrics.CompOther, db.cost.ReadIO(len(out)-len(dst)))
	return out, h, true, nil
}

// recordOf reads the header and key of the record at off, which the
// index no longer names for key, and returns the header when the record
// is key's. Any failure to read one there — a reclaimed segment, an
// offset inside a record or past the log — is no record of key's.
func (r *reader) recordOf(key []byte, off storage.Offset) (vlog.Header, bool) {
	rec, err := r.fullKey(off)
	if err != nil || !bytes.Equal(rec, key) {
		return vlog.Header{}, false
	}
	return r.hdr, true
}

// appendKey reads the full key of the record at off into dst's memory,
// over whatever dst held, charging the read I/O to c: for the cursors
// and the key reader of a compaction, which read ties into buffers of
// their own. The spare capacity takes the header.
func (db *DB) appendKey(dst []byte, off storage.Offset, c metrics.Component) ([]byte, error) {
	if cap(dst) < 64 {
		dst = make([]byte, 0, 64)
	}
	key, h, err := db.log.AppendKey(dst[:0], off)
	if err != nil {
		return dst, err
	}
	db.charge(c, db.cost.ReadIO(h.HeaderLen()+len(key)))
	return key, nil
}

// scanBatch is the most live winners a scan merges before it reads
// their records: about the cache misses one core keeps in flight.
const scanBatch = 16

// Limit bounds a limited scan (ScanLimit). Its zero value returns no
// pair.
type Limit struct {
	// Pairs is the most pairs the scan returns.
	Pairs int
	// Bytes and PairOverhead are a reply's budget: the scan ends before
	// the pair that takes the running sum of Size()+PairOverhead over
	// Bytes — unless it is the first pair, which is always returned, so
	// that a reply too small for it fails rather than comes back empty.
	Bytes, PairOverhead int
	// End, when not nil, is the first key past the range.
	End []byte
}

// Scan visits live key-value pairs with key >= start in ascending key
// order, calling fn for each until fn returns false or the keyspace is
// exhausted. Tombstones hide older versions, and the newest version of
// each key wins, merging L0, the frozen L0, and every on-device level.
//
// The pair fn receives is good until fn returns: a batch of records is
// read into one buffer, which the next batch overwrites. A caller that
// keeps a key or a value copies it (ScanN does). A caller that knows
// when it stops says so with ScanLimit: Scan reads the records of up to
// 16 pairs ahead of fn.
func (db *DB) Scan(start []byte, fn func(pair kv.Pair) bool) error {
	return db.ScanLimit(start, Limit{Pairs: math.MaxInt, Bytes: math.MaxInt}, fn)
}

// ScanN collects up to n pairs starting at start (the YCSB scan shape),
// each copied out of the scan's buffer into a record of its own.
func (db *DB) ScanN(start []byte, n int) ([]kv.Pair, error) {
	out := make([]kv.Pair, 0, n)
	err := db.ScanLimit(start, Limit{Pairs: n, Bytes: math.MaxInt}, func(p kv.Pair) bool {
		rec := append(append(make([]byte, 0, p.Size()), p.Key...), p.Value...)
		out = append(out, kv.Pair{Key: rec[:len(p.Key):len(p.Key)], Value: rec[len(p.Key):]})
		return true
	})
	return out, err
}

// ScanLimit is Scan within lim: it returns at most lim.Pairs pairs,
// those that fit lim's byte budget, and none at or past lim.End.
//
// It merges the cursors a batch of live winners at a time, up to the
// pairs still wanted and at most scanBatch, before it reads any record.
// The value log then reads the batch's headers in one vectored device
// read and, in a second, the bodies of only the records that fit: a
// record the budget cuts costs its header, not its body. A winner whose
// key the merge cannot place against lim.End without reading it (a
// prefix tie) ends its batch. The cost charged is what a scan that read
// one record at a time would charge for the winners it passed — up to
// and including the one it stopped at, none merged ahead of it — and
// the bytes actually read.
func (db *DB) ScanLimit(start []byte, lim Limit, fn func(pair kv.Pair) bool) error {
	r := db.acquireReader()
	defer r.release()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if lim.Pairs <= 0 {
		return nil
	}
	if err := r.seek(start); err != nil {
		return err
	}
	var endPrefix kv.Prefix
	if lim.End != nil {
		endPrefix = kv.MakePrefix(lim.End)
	}

	stop := func(visited int) error { // the scan ends on its visited-th winner
		db.charge(metrics.CompOther, uint64(visited)*db.cost.GetPerLevel/4)
		return nil
	}
	merged, returned, size := 0, 0, 0
	for {
		// Merge the next batch: live winners' offsets, each with the
		// count of winners merged through it.
		r.offs, r.upto = r.offs[:0], r.upto[:0]
		want := min(lim.Pairs-returned, scanBatch)
		ended := false // no winner after this batch is returned
		var mergeErr error
		for len(r.offs) < want {
			won, held, ok, err := r.next()
			if err != nil {
				mergeErr = err
				break
			}
			if !ok {
				ended = true
				break
			}
			merged++
			if won.Tombstone {
				continue
			}
			tie := false
			if lim.End != nil {
				if held != nil {
					ended = kv.Compare(held, lim.End) >= 0
				} else {
					c := won.Prefix.Compare(endPrefix)
					ended, tie = c > 0, c == 0
				}
				if ended {
					break
				}
			}
			r.offs = append(r.offs, won.ValueOff)
			r.upto = append(r.upto, merged)
			if tie {
				break
			}
		}

		// Read the batch's headers, then the bodies of the records
		// before the first that does not fit. A tombstone's body (its
		// key) is read and skipped, and counts against nothing.
		hdrs, readErr := db.log.ReadHeaders(&r.batch, r.offs)
		fit, pairs := len(hdrs), returned
		for i, h := range hdrs {
			if h.Tombstone() {
				continue
			}
			size += h.KeyLen() + h.ValLen() + lim.PairOverhead
			if size > lim.Bytes && pairs > 0 {
				fit = i
				break
			}
			pairs++
		}
		var bodyErr error
		r.buf, bodyErr = db.log.AppendBodies(&r.batch, r.buf[:0], hdrs[:fit])
		var cycles uint64
		got := 0 // bodies read
		for i, pos := 0, 0; i < len(hdrs); i++ {
			if n := hdrs[i].KeyLen() + hdrs[i].ValLen(); i < fit && pos+n <= len(r.buf) {
				pos += n
				got++
				cycles += db.cost.ReadIO(hdrs[i].RecLen())
			} else {
				cycles += db.cost.ReadIO(hdrs[i].HeaderLen())
			}
		}
		db.charge(metrics.CompOther, cycles)

		// Hand the pairs over, in order.
		pos := 0
		for i, h := range hdrs[:got] {
			kl, end := h.KeyLen(), pos+h.KeyLen()+h.ValLen()
			rec := r.buf[pos:end:end]
			pos = end
			if h.Tombstone() {
				continue
			}
			if lim.End != nil && kv.Compare(rec[:kl], lim.End) >= 0 {
				return stop(r.upto[i])
			}
			returned++
			if !fn(kv.Pair{Key: rec[:kl:kl], Value: rec[kl:]}) || returned == lim.Pairs {
				return stop(r.upto[i])
			}
		}
		switch {
		case got < fit:
			return bodyErr
		case fit < len(hdrs):
			return stop(r.upto[fit])
		case readErr != nil:
			return readErr
		case mergeErr != nil:
			return mergeErr
		case ended:
			return stop(merged)
		}
	}
}

// seek opens the scan's cursors, newest first — the active L0, the
// frozen L0, then L1, L2, ... — each standing on its
// first entry >= start. The cursor list points into r.mem and r.trees,
// so both are sized before anything takes an address in them.
func (r *reader) seek(start []byte) error {
	db := r.db
	r.mem = slices.Grow(r.mem, 2)
	r.trees = slices.Grow(r.trees, len(db.levels))
	addMem := func(it memtable.Iterator) {
		r.mem = append(r.mem, memCursor{it: it})
		r.cursors = append(r.cursors, &r.mem[len(r.mem)-1])
	}
	addMem(db.l0.SeekGE(start))
	if db.frozen != nil {
		addMem(db.frozen.mt.SeekGE(start))
	}
	for i := 1; i < len(db.levels); i++ {
		lv := db.levels[i]
		if lv == nil {
			continue
		}
		r.trees = r.trees[:len(r.trees)+1]
		c := &r.trees[len(r.trees)-1]
		if err := c.seek(db, lv.tree, start, r.fullKey); err != nil {
			return err
		}
		r.cursors = append(r.cursors, c)
	}
	return nil
}

// next merges one winner: the entry with the smallest key among the
// cursors, the newest version of it (the earliest cursor in the list
// wins ties), with its full key when the merge holds it (held, else
// nil). Every cursor standing on that key steps past it — the older
// ones hold shadowed versions (a cursor holds a key once). ok is false
// when every cursor is exhausted.
func (r *reader) next() (won btree.LeafEntry, held []byte, ok bool, err error) {
	cursors := r.cursors
	winner := -1
	for i, c := range cursors {
		if !c.valid() {
			continue
		}
		if winner >= 0 {
			if cmp, err := compareCursors(c, cursors[winner]); err != nil {
				return won, nil, false, err
			} else if cmp >= 0 {
				continue
			}
		}
		winner = i
	}
	if winner < 0 {
		return won, nil, false, nil
	}
	w := cursors[winner]
	won = w.entry()
	for _, c := range cursors[winner+1:] {
		if !c.valid() {
			continue
		}
		if cmp, err := compareCursors(c, w); err != nil {
			return won, nil, false, err
		} else if cmp == 0 {
			if err := c.next(); err != nil {
				return won, nil, false, err
			}
		}
	}
	held = w.heldKey()
	if err := w.next(); err != nil {
		return won, nil, false, err
	}
	return won, held, true, nil
}
