package replica

import (
	"fmt"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
)

// sameFilters fails t unless the backup-side level states hold exactly
// the primary's keys and filters, level by level, with a filter on
// every populated level but the deepest, which has none.
func sameFilters(t *testing.T, what string, got, want []lsm.LevelState) {
	t.Helper()
	populated, deepest := 0, -1
	for i, st := range want {
		if st.NumKeys > 0 {
			populated++
			deepest = i
		}
	}
	for i, st := range want {
		filtered := st.NumKeys > 0 && i != deepest
		if i >= len(got) || got[i].NumKeys != st.NumKeys || !got[i].Filter.Equal(st.Filter) || filtered != (st.Filter != nil) {
			t.Fatalf("%s: L%d differs from the primary's (%d keys, filter %v)", what, i+1, st.NumKeys, st.Filter != nil)
		}
	}
	if populated < 2 {
		t.Fatalf("%s: %d populated levels; the test wants two or more", what, populated)
	}
}

// getAll reads back loadKeys' keys from db and returns the lookups'
// level counts.
func getAll(t *testing.T, what string, db *lsm.DB, n int) metrics.LookupSnapshot {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("%s: Get(%s) = %q, %v, %v", what, k, v, found, err)
		}
	}
	return db.LookupStats()
}

// loadKeys writes n keys whose twelve bytes are their prefix, so the
// level filters tell them apart: all but the last 600 compacted into
// one level, those 600 flushed into L1 above it.
func loadKeys(t *testing.T, db *lsm.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == n-601 {
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncedBackupBuildsThePrimarysFilters: Sync ships every level as a
// pseudo-job through the index path, so a backup seeded from nothing
// rewrites every leaf and builds the primary's filters, bit for bit, and
// the engine it promotes to serves with them.
func TestSyncedBackupBuildsThePrimarysFilters(t *testing.T) {
	r := newRig(t, SendIndex, 0)
	const n = 3400
	loadKeys(t, r.db, n)
	nb := r.addEmptyBackup(SendIndex)
	if _, err := r.primary.Sync(nb); err != nil {
		t.Fatal(err)
	}
	want := r.db.Levels()
	sameFilters(t, "synced backup", nb.LevelStates(len(want)+1), want)

	r.primary.Detach(nb)
	db, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if d := getAll(t, "promoted", db, n); d.Skipped == 0 {
		t.Fatalf("the promoted engine's gets skipped no level: %+v", d)
	}
}

// TestFailoverPromotedBackupKeepsFilters: a Send-Index backup's level
// filters are the primary's, so the engine a failover promotes it to
// serves with them and answers every key.
func TestFailoverPromotedBackupKeepsFilters(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	const n = 3400
	loadKeys(t, r.db, n)
	r.checkHealthy()
	want := r.db.Levels()
	b := r.backups[0]
	sameFilters(t, "backup", b.LevelStates(len(want)+1), want)

	r.primary.DetachAll()
	next, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	sameFilters(t, "promoted backup", next.Levels(), want)
	if d := getAll(t, "promoted backup", next, n); d.Skipped == 0 {
		t.Fatalf("the promoted engine's gets skipped no level: %+v", d)
	}
}
