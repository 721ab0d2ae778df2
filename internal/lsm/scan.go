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
		cursors = append(cursors, newTreeCursor(db, it))
	}

	visited := 0
	for {
		// Find the smallest key among valid cursors; the earliest
		// cursor in the list (newest data) wins ties.
		winner := -1
		for i, c := range cursors {
			if !c.valid() {
				if tc, ok := c.(*treeCursor); ok && tc.err != nil {
					return tc.err
				}
				continue
			}
			if winner < 0 || kv.Compare(c.key(), cursors[winner].key()) < 0 {
				winner = i
			}
		}
		if winner < 0 {
			break
		}
		w := cursors[winner]
		keyCopy := append([]byte(nil), w.key()...)
		off, tomb := w.off(), w.tomb()

		// Advance every cursor positioned at this key (shadowed
		// versions are skipped).
		for _, c := range cursors {
			for c.valid() && kv.Compare(c.key(), keyCopy) == 0 {
				if err := c.next(); err != nil {
					return err
				}
			}
		}

		visited++
		if tomb {
			continue
		}
		pair, tombRec, err := db.log.Get(off)
		if err != nil {
			return err
		}
		if tombRec {
			continue
		}
		db.charge(metrics.CompOther, db.cost.ReadIO(pair.Size()+8))
		if !fn(kv.Pair{Key: keyCopy, Value: pair.Value}) { // log.Get read it into a buffer of its own
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
