package lsm

import (
	"tebis/internal/kv"
	"tebis/internal/metrics"
)

// Scan visits live key-value pairs with key >= start in ascending key
// order, calling fn for each until fn returns false or the keyspace is
// exhausted. Tombstones hide older versions, and the newest version of
// each key wins, merging L0, the frozen L0 (if any), and every on-device
// level.
func (db *DB) Scan(start []byte, fn func(pair kv.Pair) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}

	// Collect cursors newest-first: active L0, frozen L0s (newest
	// first), L1, L2, ...
	var cursors []cursor
	cursors = append(cursors, &memCursor{it: db.l0.SeekGE(start)})
	for i := len(db.frozen) - 1; i >= 0; i-- {
		cursors = append(cursors, &memCursor{it: db.frozen[i].mt.SeekGE(start)})
	}
	for i := 1; i < len(db.levels); i++ {
		lv := db.levels[i]
		if lv == nil {
			continue
		}
		it, err := lv.tree.SeekGE(start, db.readKeyCharged)
		if err != nil {
			return err
		}
		cursors = append(cursors, newTreeCursor(db, it, metrics.CompOther))
	}

	visited := 0
	for {
		// Find the smallest key among valid cursors; the earliest
		// cursor in the list (newest data) wins ties.
		winner := -1
		for i, c := range cursors {
			if !c.valid() {
				continue
			}
			if winner >= 0 {
				if cmp, err := compareCursors(c, cursors[winner]); err != nil {
					return err
				} else if cmp >= 0 {
					continue
				}
			}
			winner = i
		}
		if winner < 0 {
			break
		}
		w := cursors[winner]
		won := w.entry()

		// Step past this key everywhere: the older cursors standing on
		// it hold shadowed versions (a cursor holds a key once), then
		// the winner itself.
		for _, c := range cursors[winner+1:] {
			if !c.valid() {
				continue
			}
			if cmp, err := compareCursors(c, w); err != nil {
				return err
			} else if cmp == 0 {
				if err := c.next(); err != nil {
					return err
				}
			}
		}
		if err := w.next(); err != nil {
			return err
		}

		visited++
		if won.Tombstone {
			continue
		}
		// The one read of the winning record: fn gets its key and value
		// out of the buffer log.Get read them into.
		pair, tombRec, err := db.log.Get(won.ValueOff)
		if err != nil {
			return err
		}
		if tombRec {
			continue
		}
		db.charge(metrics.CompOther, db.cost.ReadIO(pair.Size()+8))
		if !fn(pair) {
			break
		}
	}
	db.charge(metrics.CompOther, uint64(visited)*db.cost.GetPerLevel/4)
	return nil
}

// ScanN collects up to n pairs starting at start (the YCSB scan shape).
func (db *DB) ScanN(start []byte, n int) ([]kv.Pair, error) {
	out := make([]kv.Pair, 0, n)
	err := db.Scan(start, func(p kv.Pair) bool {
		out = append(out, p)
		return len(out) < n
	})
	return out, err
}
