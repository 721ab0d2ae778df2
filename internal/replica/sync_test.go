package replica

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tebis/internal/btree"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/storage"
	"tebis/internal/wire"
)

// addEmptyBackup attaches a brand-new backup to an existing rig primary.
func (r *rig) addEmptyBackup(mode Mode) *Backup {
	r.t.Helper()
	dev, err := storage.NewMemDevice(16<<10, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	cy := &metrics.Cycles{}
	ep := rdma.NewEndpoint(fmt.Sprintf("newbackup%d", len(r.backups)))
	b, err := NewBackup(BackupConfig{
		RegionID:   1,
		ServerName: ep.Name(),
		Mode:       mode,
		Device:     dev,
		Endpoint:   ep,
		Cycles:     cy,
		Cost:       metrics.DefaultCostModel(),
		LSM:        lsmOpts(),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	Attach(r.primary, b)
	r.backups = append(r.backups, b)
	r.devB = append(r.devB, dev)
	r.cyB = append(r.cyB, cy)
	r.epB = append(r.epB, ep)
	return b
}

func testSyncNewBackup(t *testing.T, mode Mode) {
	r := newRig(t, mode, 1)
	const n = 2800
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	// A backup "failed": attach a fresh empty one and transfer state.
	nb := r.addEmptyBackup(mode)
	if _, err := r.primary.Sync(nb); err != nil {
		t.Fatal(err)
	}
	if mode == BuildIndex {
		if err := nb.DB().WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}

	// The synced backup must be promotable and serve every record.
	r.primary.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i += 3 {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("synced-backup Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

func TestSyncNewBackupSendIndex(t *testing.T)  { testSyncNewBackup(t, SendIndex) }
func TestSyncNewBackupBuildIndex(t *testing.T) { testSyncNewBackup(t, BuildIndex) }

func TestSyncRequiresAttachment(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(300, 20)
	dev, _ := storage.NewMemDevice(16<<10, 0)
	defer dev.Close()
	orphan, err := NewBackup(BackupConfig{
		RegionID: 1, ServerName: "orphan", Mode: SendIndex,
		Device: dev, Endpoint: rdma.NewEndpoint("orphan"),
		Cost: metrics.DefaultCostModel(), LSM: lsmOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.primary.Sync(orphan); err == nil {
		t.Fatal("Sync of unattached backup succeeded")
	}
}

// midBuildGate is the primary as the engine's listener, except that it
// parks the first index segment it sees until released — a compaction
// job held mid-build.
type midBuildGate struct {
	*Primary
	once    sync.Once
	parked  chan struct{} // closed once a job is held
	release chan struct{}
}

func (g *midBuildGate) OnIndexSegment(job lsm.CompactionJob, seg btree.EmittedSegment) {
	g.once.Do(func() {
		close(g.parked)
		<-g.release
	})
	g.Primary.OnIndexSegment(job, seg)
}

// TestSyncBackupAttachedMidJob is the regression for the attach race: a
// backup attached while a compaction job is in flight never saw that
// job's start, so the job must not ship to it (it would fail with
// "index segment for unknown job" and drop off), and Sync must still
// leave it holding the job's result.
func TestSyncBackupAttachedMidJob(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	gate := &midBuildGate{Primary: r.primary, parked: make(chan struct{}), release: make(chan struct{})}
	r.db.SetListener(gate)

	const n = 300 // past L0MaxKeys: the first L0→L1 job starts and parks
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-gate.parked

	nb := r.addEmptyBackup(SendIndex)
	synced := make(chan error, 1)
	go func() {
		_, err := r.primary.Sync(nb)
		synced <- err
	}()
	close(gate.release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync of a backup attached mid-job: %v", err)
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	// The transfer ran after the held job installed its level, so the
	// new backup holds the same levels as the one attached from the start.
	want := r.backups[0].LevelStates(lsmOpts().MaxLevels)
	for i, st := range nb.LevelStates(lsmOpts().MaxLevels) {
		if st.NumKeys != want[i].NumKeys {
			t.Fatalf("level %d: synced backup holds %d keys, original backup %d", i+1, st.NumKeys, want[i].NumKeys)
		}
	}

	r.primary.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

// TestReservedOpcodesRejected: opcodes 21 and 22 belonged to the retired
// head-trim command; a backup answers them like any opcode it does not
// know.
func TestReservedOpcodesRejected(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	for _, op := range []wire.Op{21, 22, 200} {
		_, err := r.backups[0].handle(wire.Header{Opcode: op}, nil)
		if err == nil || !strings.Contains(err.Error(), "unexpected op") {
			t.Fatalf("handle(op %d) = %v, want the unexpected-op error", op, err)
		}
	}
}

// testSyncUnderLivePuts: Sync runs while a client keeps writing — as the
// master's refill does — new keys and overwrites of the preloaded ones,
// and the synced backup, once promoted, serves the last value of every
// key. A live append that lands between a sealed segment's image and its
// flush, or a tail that seals before Sync mirrored it and flushes a
// buffer without the records appended before Attach, loses or garbles
// acked writes; so does a Build-Index backup that indexes a segment
// sealed during the transfer ahead of the older ones the transfer ships
// after it.
func testSyncUnderLivePuts(t *testing.T, mode Mode) {
	r := newRig(t, mode, 1)
	const preload, live = 2800, 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	want := make(map[string]string, preload+live)
	for i := 0; i < preload; i++ {
		v := fmt.Sprintf("v-%d", i)
		if err := r.db.Put(key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[string(key(i))] = v
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// The live writer's puts: a new key each, every third one an
	// overwrite of a preloaded key as well.
	type put struct{ k, v string }
	var puts []put
	for i := 0; i < live; i++ {
		puts = append(puts, put{string(key(preload + i)), fmt.Sprintf("w-%d", i)})
		if i%3 == 0 {
			puts = append(puts, put{string(key(i * 997 % preload)), fmt.Sprintf("o-%d", i)})
		}
	}
	nb := r.addEmptyBackup(mode)
	// Each segment-sized write into the new backup — the transfer's —
	// lingers on the wire, so the writer's appends, and the seals among
	// them, run beside the transfer.
	r.epB[len(r.epB)-1].InjectFault(func(op rdma.FaultOp, _, to string, _ int, payload []byte) rdma.Fault {
		if op == rdma.FaultWrite && to == nb.ServerName() && len(payload) > 4<<10 {
			return rdma.Fault{Action: rdma.FaultDelay, Delay: time.Millisecond}
		}
		return rdma.Fault{}
	})
	started := make(chan struct{})
	putErr := make(chan error, 1)
	go func() {
		for j, p := range puts {
			if j == 50 {
				close(started)
			}
			if err := r.db.Put([]byte(p.k), []byte(p.v)); err != nil {
				putErr <- err
				return
			}
		}
		putErr <- nil
	}()
	<-started
	if _, err := r.primary.Sync(nb); err != nil {
		t.Fatal(err)
	}
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	for _, p := range puts {
		want[p.k] = p.v
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if mode == BuildIndex {
		if err := nb.DB().WaitIdle(); err != nil {
			t.Fatal(err)
		}
	}
	r.checkHealthy()
	if evs := r.primary.Evictions(); len(evs) != 0 {
		t.Fatalf("evictions = %+v", evs)
	}

	r.primary.Detach(nb)
	db2, err := nb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	wrong := 0
	for k, v := range want {
		got, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(got) != v {
			if wrong < 5 {
				t.Errorf("synced-backup Get(%s) = %q, %v, %v; want %q", k, got, found, err, v)
			}
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d keys wrong on the backup synced under live puts", wrong, len(want))
	}
}

func TestSyncUnderLivePutsSendIndex(t *testing.T)  { testSyncUnderLivePuts(t, SendIndex) }
func TestSyncUnderLivePutsBuildIndex(t *testing.T) { testSyncUnderLivePuts(t, BuildIndex) }
