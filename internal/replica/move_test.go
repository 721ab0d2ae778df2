package replica

import (
	"bytes"
	"fmt"
	"testing"

	"tebis/internal/lsm"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// moveProbe stands in front of the primary as its engine's listener and,
// around every move, reads the backup's device and levels and the
// primary's NIC.
type moveProbe struct {
	*Primary
	r *rig

	moves          int
	levels         []lsm.LevelState // the backup's, at the last move's start
	before, after  storage.Stats    // the backup's device around the last move
	txBefore, sent uint64           // the primary's NIC bytes; sent sums the moves'
}

func (m *moveProbe) OnCompactionStart(job lsm.CompactionJob) {
	if job.Move {
		b := m.r.backups[0]
		m.levels, m.before, m.txBefore = b.LevelStates(lsmOpts().MaxLevels), m.r.devB[0].Stats(), m.r.epP.TxBytes()
	}
	m.Primary.OnCompactionStart(job)
}

func (m *moveProbe) OnCompactionDone(res lsm.CompactionResult) {
	m.Primary.OnCompactionDone(res)
	if res.Moved {
		m.moves++
		m.after = m.r.devB[0].Stats()
		m.sent += m.r.epP.TxBytes() - m.txBefore
	}
}

// moveValue is the value of the i-th key (keyOf) in the move tests.
func moveValue(i int) []byte { return []byte(fmt.Sprintf("moved-value-%08d", i)) }

// putKeys writes keys [0, n) and waits for the primary's jobs.
func (r *rig) putKeys(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(keyOf(i)), moveValue(i)); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.db.WaitIdle(); err != nil {
		r.t.Fatal(err)
	}
	r.checkHealthy()
}

// promoteAndCheck detaches and promotes backup 0 and reads keys [0, n)
// from the promoted engine.
func (r *rig) promoteAndCheck(n int) {
	r.t.Helper()
	b := r.backups[0]
	r.primary.Detach(b)
	db, err := b.Promote()
	if err != nil {
		r.t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		v, found, err := db.Get([]byte(keyOf(i)))
		if err != nil || !found || !bytes.Equal(v, moveValue(i)) {
			r.t.Fatalf("promoted Get(%s) = %q, %v, %v; want %q", keyOf(i), v, found, err, moveValue(i))
		}
	}
}

// TestSendIndexMoveShipsNothing: five L0 tables overfill the primary's
// L1 (capacity 1024) above an empty L2, and the job of L1 into L2 moves
// it. The move sends the Send-Index backup one CompactionDone and
// nothing else — no start, no segment — and the backup writes, reads,
// allocates and frees nothing: it relabels its L1 as L2, the same
// rewritten root, segments and filter. Its levels are then the
// primary's, and promoted, it serves every acked key.
func TestSendIndexMoveShipsNothing(t *testing.T) {
	var probe *moveProbe
	r := newRigOpts(t, SendIndex, 1, func(opt *lsm.Options) {
		probe = &moveProbe{Primary: opt.Listener.(*Primary)}
		opt.Listener = probe
	})
	probe.r = r // before the first put: no job runs earlier
	const n = 5 * 256
	r.putKeys(n)

	if probe.moves != 1 || r.db.CompactionStats().Moves != 1 {
		t.Fatalf("the probe saw %d moves and the engine counted %d, want 1", probe.moves, r.db.CompactionStats().Moves)
	}
	if probe.before != probe.after {
		t.Fatalf("the backup's device moved during the move: %+v, then %+v", probe.before, probe.after)
	}
	done := uint64(wire.SentSize(wire.CompactionDone{}.Size()))
	if probe.sent != done {
		t.Fatalf("the primary sent %d bytes during the move, want one CompactionDone's %d", probe.sent, done)
	}
	src := probe.levels[0]
	got := r.backups[0].LevelStates(lsmOpts().MaxLevels)
	if src.NumKeys != n || got[0].NumKeys != 0 || got[1].Root != src.Root || got[1].Filter != src.Filter ||
		fmt.Sprint(got[1].Segments) != fmt.Sprint(src.Segments) {
		t.Fatalf("the backup's L1 before the move: %+v; its L1 and L2 after: %+v, %+v", src, got[0], got[1])
	}
	for i, st := range r.db.Levels() {
		if got[i].NumKeys != st.NumKeys || !got[i].Filter.Equal(st.Filter) {
			t.Fatalf("L%d: backup holds %d keys, the primary %d (filters equal: %v)", i+1, got[i].NumKeys, st.NumKeys, got[i].Filter.Equal(st.Filter))
		}
	}
	r.promoteAndCheck(n)
}

// TestBuildIndexBackupMovesItsOwnLevels: a Build-Index backup runs the
// primary's planner on its own engine, so it moves its levels too, and
// promoted after its moves, it serves every acked key.
func TestBuildIndexBackupMovesItsOwnLevels(t *testing.T) {
	r := newRig(t, BuildIndex, 1)
	const n = 2000
	r.putKeys(n)
	db := r.backups[0].DB()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if moves := db.CompactionStats().Moves; moves == 0 {
		t.Fatalf("the Build-Index backup's engine moved no level (%d jobs)", db.CompactionStats().Jobs)
	}
	r.promoteAndCheck(n)
}
