package replica

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"tebis/internal/btree"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/storage"
)

// rig is a one-region mini cluster: a primary plus n backups, each with
// its own device, NIC, and cycle account.
type rig struct {
	t       *testing.T
	mode    Mode
	primary *Primary
	db      *lsm.DB
	backups []*Backup

	devP *storage.MemDevice
	cyP  *metrics.Cycles
	epP  *rdma.Endpoint

	devB []*storage.MemDevice
	cyB  []*metrics.Cycles
	epB  []*rdma.Endpoint
}

func lsmOpts() lsm.Options {
	return lsm.Options{
		NodeSize:     512,
		GrowthFactor: 4,
		L0MaxKeys:    256,
		MaxLevels:    5,
		Seed:         1,
	}
}

func newRig(t *testing.T, mode Mode, nBackups int) *rig {
	t.Helper()
	return newRigOpts(t, mode, nBackups, nil)
}

// newRigOpts is newRig with a hook to adjust the primary engine's
// options (e.g. attach compaction stats or change scheduler knobs).
func newRigOpts(t *testing.T, mode Mode, nBackups int, tweak func(*lsm.Options)) *rig {
	t.Helper()
	return newRigCfg(t, mode, nBackups, tweak, nil, nil)
}

// newRigCfg additionally exposes the primary's replica config (failure
// tests shorten the retry policy and attach failure metrics) and each
// backup's config (trace tests attach a tracer).
func newRigCfg(t *testing.T, mode Mode, nBackups int, tweak func(*lsm.Options), ptweak func(*PrimaryConfig), btweak func(*BackupConfig)) *rig {
	t.Helper()
	const segSize = 16 << 10
	r := &rig{t: t, mode: mode}
	var err error
	r.devP, err = storage.NewMemDevice(segSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.cyP = &metrics.Cycles{}
	r.epP = rdma.NewEndpoint("primary")

	pcfg := PrimaryConfig{
		RegionID:   1,
		ServerName: "primary",
		Mode:       mode,
		Endpoint:   r.epP,
		Cycles:     r.cyP,
		Cost:       metrics.DefaultCostModel(),
	}
	if ptweak != nil {
		ptweak(&pcfg)
	}
	r.primary = NewPrimary(pcfg)

	opt := lsmOpts()
	opt.Device = r.devP
	opt.Cycles = r.cyP
	if mode != NoReplication {
		opt.Listener = r.primary
	}
	if tweak != nil {
		tweak(&opt)
	}
	r.db, err = lsm.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	r.primary.SetDB(r.db)

	for i := 0; i < nBackups; i++ {
		dev, err := storage.NewMemDevice(segSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		cy := &metrics.Cycles{}
		ep := rdma.NewEndpoint(fmt.Sprintf("backup%d", i))
		bcfg := BackupConfig{
			RegionID:   1,
			ServerName: ep.Name(),
			Mode:       mode,
			Device:     dev,
			Endpoint:   ep,
			Cycles:     cy,
			Cost:       metrics.DefaultCostModel(),
			LSM:        lsmOpts(),
		}
		if btweak != nil {
			btweak(&bcfg)
		}
		b, err := NewBackup(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		Attach(r.primary, b)
		r.backups = append(r.backups, b)
		r.devB = append(r.devB, dev)
		r.cyB = append(r.cyB, cy)
		r.epB = append(r.epB, ep)
	}
	t.Cleanup(func() {
		r.primary.DetachAll()
		r.devP.Close()
		for _, d := range r.devB {
			d.Close()
		}
	})
	return r
}

// load writes n sequential keys and waits for compactions to drain.
func (r *rig) load(n int, valSize int) {
	r.t.Helper()
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.db.Flush(); err != nil {
		r.t.Fatal(err)
	}
	r.checkHealthy()
}

func (r *rig) checkHealthy() {
	r.t.Helper()
	if err := r.primary.Err(); err != nil {
		r.t.Fatal(err)
	}
	for _, b := range r.backups {
		if err := b.Err(); err != nil {
			r.t.Fatal(err)
		}
	}
}

func TestSendIndexShipsLevels(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(3000, 40)

	b := r.backups[0]
	bLevels := b.LevelStates(lsmOpts().MaxLevels)
	pLevels := r.db.Levels()
	for i := range pLevels {
		if pLevels[i].NumKeys != bLevels[i].NumKeys {
			t.Fatalf("level %d: primary %d keys, backup %d keys", i+1, pLevels[i].NumKeys, bLevels[i].NumKeys)
		}
		if pLevels[i].NumKeys > 0 {
			if bLevels[i].Root == storage.NilOffset {
				t.Fatalf("level %d: backup root missing", i+1)
			}
			if len(bLevels[i].Segments) != len(pLevels[i].Segments) {
				t.Fatalf("level %d: segment counts differ (%d vs %d)",
					i+1, len(bLevels[i].Segments), len(pLevels[i].Segments))
			}
		}
	}
	if b.LogMap().Len() == 0 {
		t.Fatal("log map empty after flushes")
	}
}

// TestShippedLevelIsOneSegmentChain: a level with index heights is one
// chain of segments — only its last one partly filled — and a Send-Index
// backup installs it in as many segments as the primary's. Every key the
// primary's tree resolves, the backup's rewritten tree resolves to the
// same record: the primary's value offset, moved into the backup's copy
// of its log segment.
func TestShippedLevelIsOneSegmentChain(t *testing.T) {
	const n = 6000
	r := newRig(t, SendIndex, 1)
	r.load(n, 40)
	b := r.backups[0]
	nodeSize := lsmOpts().NodeSize
	geo := r.devP.Geometry()
	slots := int(storage.UsableCapacity(r.devP)) / nodeSize

	// The backup's log segments hold the primary's records at the same
	// place, so a backup offset reads its key from the primary's log.
	logMap := b.LogMap().Snapshot()
	primaryOf := make(map[storage.SegmentID]storage.SegmentID, len(logMap))
	for p, l := range logMap {
		primaryOf[l] = p
	}
	primaryKey := func(off storage.Offset) ([]byte, error) { return r.db.Log().GetKey(off) }
	backupKey := func(off storage.Offset) ([]byte, error) {
		p, ok := primaryOf[geo.Segment(off)]
		if !ok {
			return nil, fmt.Errorf("backup offset %#x is in no mapped log segment", off)
		}
		return r.db.Log().GetKey(geo.Pack(p, geo.Within(off)))
	}

	found, multiHeight := 0, false
	bLevels := b.LevelStates(lsmOpts().MaxLevels)
	for i, pl := range r.db.Levels() {
		if pl.NumKeys == 0 {
			continue
		}
		root := make([]byte, nodeSize)
		if err := r.devP.ReadAt(pl.Root, root); err != nil {
			t.Fatal(err)
		}
		multiHeight = multiHeight || !btree.IsLeaf(root)
		pTree := btree.NewTree(r.devP, nodeSize, pl.Root)
		var it btree.Iterator
		for it.First(pTree); it.Valid(); it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		want := (it.NodesRead() + slots - 1) / slots
		if len(pl.Segments) != want || len(bLevels[i].Segments) != want {
			t.Fatalf("level %d: %d nodes in %d segments on the primary, %d on the backup; want %d of %d slots",
				i+1, it.NodesRead(), len(pl.Segments), len(bLevels[i].Segments), want, slots)
		}

		bTree := btree.NewTree(r.devB[0], nodeSize, bLevels[i].Root)
		for k := 0; k < n; k++ {
			key := []byte(fmt.Sprintf("user%08d", k))
			pOff, _, pFound, err := pTree.Get(key, primaryKey)
			if err != nil {
				t.Fatal(err)
			}
			bOff, _, bFound, err := bTree.Get(key, backupKey)
			if err != nil {
				t.Fatal(err)
			}
			if bFound != pFound {
				t.Fatalf("level %d: %s found %v on the primary, %v on the backup", i+1, key, pFound, bFound)
			}
			if !pFound {
				continue
			}
			found++
			if local, ok := logMap[geo.Segment(pOff)]; !ok || bOff != geo.Pack(local, geo.Within(pOff)) {
				t.Fatalf("level %d: %s at %#x on the primary, %#x on the backup", i+1, key, pOff, bOff)
			}
		}
	}
	if !multiHeight || found != n {
		t.Fatalf("the levels resolve %d of %d keys, with index heights: %v", found, n, multiHeight)
	}
}

// TestSendIndexShipsSegmentsBeforeBuildCompletes is the acceptance test
// for streaming ships: with replication attached, index segments must
// reach the backup while the primary's index build is still running —
// the Send-Index streaming. Shipping to the backup is synchronous inside
// the job's builder, so a segment recorded as "early" was rewritten by
// the backup before the build finished.
func TestSendIndexShipsSegmentsBeforeBuildCompletes(t *testing.T) {
	stats := &metrics.CompactionStats{}
	r := newRigOpts(t, SendIndex, 1, func(o *lsm.Options) { o.CompactionStats = stats })
	// Enough data to force a >4096-key merge, which seals segments well
	// before its last entry.
	r.load(6000, 40)

	snap := stats.Snapshot()
	if snap.Jobs == 0 || snap.SegmentsShipped == 0 {
		t.Fatalf("no shipping activity: %+v", snap)
	}
	if snap.SegmentsShippedEarly == 0 {
		t.Fatalf("backup never received a segment before the build completed (%d shipped)", snap.SegmentsShipped)
	}
	// The early segments really were processed by the backup, not just
	// handed to a listener: it charged rewrite cycles and its levels
	// match the primary's.
	if got := r.cyB[0].Snapshot()[metrics.CompRewriteIndex]; got == 0 {
		t.Fatal("backup charged no rewrite cycles")
	}
	bLevels := r.backups[0].LevelStates(lsmOpts().MaxLevels)
	for i, st := range r.db.Levels() {
		if st.NumKeys != bLevels[i].NumKeys {
			t.Fatalf("level %d: primary %d keys, backup %d keys", i+1, st.NumKeys, bLevels[i].NumKeys)
		}
	}
}

// TestCompactionStartFreesAnUnfinishedJob: a job that never finished —
// started, one segment shipped, no done — leaves nothing allocated on
// the backup once the next job starts, whatever that job's ID.
func TestCompactionStartFreesAnUnfinishedJob(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(2000, 24)
	lv := r.db.Levels()
	i := slices.IndexFunc(lv, func(st lsm.LevelState) bool { return st.NumKeys > 0 })
	if i < 0 {
		t.Fatal("the load built no level")
	}
	// Re-ship one of the level's segments: every log segment its entries
	// point into is mapped on the backup already.
	seg := lv[i].Segments[0]
	image := make([]byte, r.devP.Geometry().SegmentSize())
	if err := r.db.Log().ReadSegmentImage(seg, image); err != nil {
		t.Fatal(err)
	}
	before := r.devB[0].Stats().SegmentsLive

	job1 := lsm.CompactionJob{ID: 1 << 40, SrcLevel: i + 1, DstLevel: i + 2}
	r.primary.OnCompactionStart(job1)
	r.primary.OnIndexSegment(job1, btree.EmittedSegment{Seg: seg, Data: image})
	if live := r.devB[0].Stats().SegmentsLive; live <= before {
		t.Fatalf("the backup holds %d segments after job 1's ship, %d before it: nothing was staged", live, before)
	}
	r.primary.OnCompactionStart(lsm.CompactionJob{ID: job1.ID + 1, SrcLevel: i + 1, DstLevel: i + 2})
	if live := r.devB[0].Stats().SegmentsLive; live != before {
		t.Fatalf("the backup holds %d segments once job 2 started, %d before job 1: job 1's staging leaked", live, before)
	}
	r.checkHealthy()
	if err := r.backups[0].Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSendIndexBackupDoesNoCompactionWork(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(4000, 40)

	bc := r.cyB[0].Snapshot()
	// The paper's core claim: backups avoid compaction merge-sort, L0
	// insertion, and compaction reads entirely (§3.3).
	if bc[metrics.CompCompaction] != 0 {
		t.Fatalf("Send-Index backup charged %d compaction cycles", bc[metrics.CompCompaction])
	}
	if bc[metrics.CompInsertL0] != 0 {
		t.Fatalf("Send-Index backup charged %d L0 cycles", bc[metrics.CompInsertL0])
	}
	if bc[metrics.CompRewriteIndex] == 0 {
		t.Fatal("Send-Index backup did no rewrites")
	}
	// Backups never read their device in Send-Index (no compactions).
	if got := r.devB[0].Stats().BytesRead; got != 0 {
		t.Fatalf("Send-Index backup read %d device bytes", got)
	}
	pc := r.cyP.Snapshot()
	if pc[metrics.CompSendIndex] == 0 {
		t.Fatal("primary charged no send-index cycles")
	}
	if pc[metrics.CompLogReplication] == 0 {
		t.Fatal("primary charged no log replication cycles")
	}
}

func TestBuildIndexBackupDoesCompactionWork(t *testing.T) {
	r := newRig(t, BuildIndex, 1)
	r.load(4000, 40)
	if err := r.backups[0].DB().WaitIdle(); err != nil {
		t.Fatal(err)
	}

	bc := r.cyB[0].Snapshot()
	if bc[metrics.CompCompaction] == 0 {
		t.Fatal("Build-Index backup charged no compaction cycles")
	}
	if bc[metrics.CompInsertL0] == 0 {
		t.Fatal("Build-Index backup charged no L0 cycles")
	}
	if bc[metrics.CompRewriteIndex] != 0 || bc[metrics.CompSendIndex] != 0 {
		t.Fatalf("Build-Index backup charged shipping cycles: %v", bc)
	}
	// Build-Index backups read their device during compactions.
	if got := r.devB[0].Stats().BytesRead; got == 0 {
		t.Fatal("Build-Index backup read no device bytes")
	}
}

// loadDrained is load with every engine drained each 120 puts — fewer
// than an L0 (256 keys) or a log segment (204 of these records) holds —
// so none freezes twice between two drains and a mode runs the same
// compaction jobs whatever the timing. Left to race, the scheduler
// drains a second frozen L0 before it cascades an over-full level, which
// decides how much a run compacts at all: a Send-Index primary slowed
// by -race wrote its backup twice the index of an unslowed one.
func (r *rig) loadDrained(n, valSize int) {
	r.t.Helper()
	val := bytes.Repeat([]byte("v"), valSize)
	drain := func() {
		if err := r.db.WaitIdle(); err != nil {
			r.t.Fatal(err)
		}
		for _, b := range r.backups {
			if db := b.DB(); db != nil {
				if err := db.WaitIdle(); err != nil {
					r.t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), val); err != nil {
			r.t.Fatal(err)
		}
		if i%120 == 119 {
			drain()
		}
	}
	if err := r.db.Flush(); err != nil {
		r.t.Fatal(err)
	}
	drain()
	r.checkHealthy()
}

func TestSendIndexLowerBackupIOThanBuildIndex(t *testing.T) {
	const n, vs = 6000, 60
	rs := newRig(t, SendIndex, 1)
	rs.loadDrained(n, vs)
	rb := newRig(t, BuildIndex, 1)
	rb.loadDrained(n, vs)

	sIO := rs.devB[0].Stats()
	bIO := rb.devB[0].Stats()
	sTotal := sIO.BytesRead + sIO.BytesWritten
	bTotal := bIO.BytesRead + bIO.BytesWritten
	t.Logf("send backup r=%d w=%d, build backup r=%d w=%d", sIO.BytesRead, sIO.BytesWritten, bIO.BytesRead, bIO.BytesWritten)
	if sTotal >= bTotal {
		t.Fatalf("Send-Index backup I/O %d >= Build-Index %d", sTotal, bTotal)
	}

	// And the network cost inverts: Send-Index moves more bytes.
	sNet := rs.epP.TxBytes()
	bNet := rb.epP.TxBytes()
	if sNet <= bNet {
		t.Fatalf("Send-Index network %d <= Build-Index %d", sNet, bNet)
	}
}

func TestPromoteSendIndexBackupServesAllData(t *testing.T) {
	r := newRig(t, SendIndex, 2)
	const n = 3500
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites and deletes mixed in, NOT flushed: the tail and L0
	// must survive promotion via the RDMA buffer + replay.
	for i := 0; i < n; i += 10 {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < n; i += 500 {
		if err := r.db.Delete([]byte(fmt.Sprintf("user%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	// Primary "fails"; promote backup 0.
	b := r.backups[0]
	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%08d", i)
		want := fmt.Sprintf("value-%d", i)
		deleted := i >= 5 && (i-5)%500 == 0
		if i%10 == 0 {
			want = "overwritten"
		}
		v, found, err := db2.Get([]byte(k))
		if err != nil {
			t.Fatalf("promoted Get(%s): %v", k, err)
		}
		if deleted {
			if found {
				t.Fatalf("promoted Get(%s) found deleted key", k)
			}
			continue
		}
		if !found || string(v) != want {
			t.Fatalf("promoted Get(%s) = %q, %v; want %q", k, v, found, want)
		}
	}
}

// TestPromoteReadsRewrittenNodesOfRecycledSegments: a Send-Index backup
// frees the segments of a replaced level and rewrites later shipments
// into the same local segments. Reading the earlier images (as a
// verifier or a promoted engine would) leaves their nodes in the device's
// node cache at the very offsets the new image reuses; the first gets of
// a promoted backup must resolve through the rewritten nodes, not those.
func TestPromoteReadsRewrittenNodesOfRecycledSegments(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	b := r.backups[0]
	maxLevels, nodeSize := lsmOpts().MaxLevels, lsmOpts().NodeSize
	const n = 3000
	// Which local segments the backup frees and which it allocates next
	// follows the primary's job sequence, and that follows timing unless
	// every job retires before the next L0 freezes: each generation starts
	// on an empty L0 and freezes on every L0MaxKeys-th put, so drain right
	// there. The backup then allocates in one fixed order, and whether a
	// read segment is recycled into the final levels is a property of
	// this test's constants, not of the scheduler's luck under -race.
	write := func(gen string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("%s-%d", gen, i))); err != nil {
				t.Fatal(err)
			}
			if (i+1)%lsmOpts().L0MaxKeys == 0 {
				if err := r.db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		r.checkHealthy()
	}

	write("old")
	// Walk every node of the backup's levels through the node cache (a
	// seek to the smallest key, then the scan iterator's descents).
	read := map[storage.SegmentID]bool{}
	for _, st := range b.LevelStates(maxLevels) {
		if st.Root == storage.NilOffset {
			continue
		}
		it := new(btree.Iterator)
		err := it.SeekGE(btree.NewTree(r.devB[0], nodeSize, st.Root), nil, nil)
		for ; err == nil && it.Valid(); it.Next() {
		}
		if err != nil || it.Err() != nil {
			t.Fatalf("walking the backup's level: %v, %v", err, it.Err())
		}
		for _, seg := range st.Segments {
			read[seg] = true
		}
	}

	write("new")
	recycled := 0
	for _, st := range b.LevelStates(maxLevels) {
		for _, seg := range st.Segments {
			if read[seg] {
				recycled++
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no local index segment was recycled between the two generations; the test lost its premise")
	}

	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		k, want := fmt.Sprintf("user%08d", i), fmt.Sprintf("new-%d", i)
		if v, found, err := db2.Get([]byte(k)); err != nil || !found || string(v) != want {
			t.Fatalf("promoted Get(%s) = %q, %v, %v; want %q", k, v, found, err, want)
		}
	}
}

func TestPromoteBuildIndexBackupServesAllData(t *testing.T) {
	r := newRig(t, BuildIndex, 1)
	const n = 2500
	for i := 0; i < n; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	r.checkHealthy()

	b := r.backups[0]
	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i += 7 {
		k := fmt.Sprintf("user%08d", i)
		v, found, err := db2.Get([]byte(k))
		if err != nil || !found || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("promoted Get(%s) = %q, %v, %v", k, v, found, err)
		}
	}
}

func TestPromotedBackupAcceptsNewWrites(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(2000, 30)
	b := r.backups[0]
	r.primary.Detach(b)
	db2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	// The promoted engine must keep working as a primary: new writes,
	// overwrites, compactions.
	for i := 0; i < 1500; i++ {
		if err := db2.Put([]byte(fmt.Sprintf("new%08d", i)), []byte("post-failover")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db2.Flush(); err != nil {
		t.Fatal(err)
	}
	v, found, err := db2.Get([]byte("new00001499"))
	if err != nil || !found || string(v) != "post-failover" {
		t.Fatalf("Get after failover writes = %q, %v, %v", v, found, err)
	}
	// Old data still present.
	if _, found, _ := db2.Get([]byte("user00000042")); !found {
		t.Fatal("pre-failover key lost")
	}
}

// TestDBReadDuringPromote: a reader calling DB in a loop — as the
// server's metrics sampler does — while Promote installs a Send-Index
// backup's new engine sees nil, then that engine, and nothing else. Run
// it under -race: DB takes no lock, and Promote writes the engine while
// the reader runs.
func TestDBReadDuringPromote(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(500, 20)
	b := r.backups[0]
	r.primary.Detach(b)

	reading, stop := make(chan struct{}), make(chan struct{})
	seen := make(chan []*lsm.DB)
	go func() {
		var dbs []*lsm.DB
		for first := true; ; first = false {
			if db := b.DB(); len(dbs) == 0 || dbs[len(dbs)-1] != db {
				dbs = append(dbs, db)
			}
			if first {
				close(reading)
			}
			select {
			case <-stop:
				seen <- dbs
				return
			default:
			}
		}
	}()
	<-reading
	db, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	close(stop)
	if dbs := <-seen; dbs[0] != nil || len(dbs) > 2 || len(dbs) == 2 && dbs[1] != db {
		t.Fatalf("DB returned %v during Promote, want nil and then %p", dbs, db)
	}
	if b.DB() != db {
		t.Fatalf("DB() = %p after Promote, want the promoted engine %p", b.DB(), db)
	}
}

func TestDoublePromoteFails(t *testing.T) {
	r := newRig(t, SendIndex, 1)
	r.load(500, 20)
	b := r.backups[0]
	r.primary.Detach(b)
	if _, err := b.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}
}

func TestLogMapRetargetAfterPromotion(t *testing.T) {
	// Three-way replication: promote backup 0; backup 1 retargets its
	// log map through the new primary's map (§3.2).
	r := newRig(t, SendIndex, 2)
	r.load(3000, 40)

	b0, b1 := r.backups[0], r.backups[1]
	newPrimaryMap := b0.LogMap().Snapshot() // old-primary seg → b0 seg
	oldMapLen := b1.LogMap().Len()
	if err := b1.LogMap().Retarget(newPrimaryMap); err != nil {
		t.Fatal(err)
	}
	if got := b1.LogMap().Len(); got != oldMapLen {
		t.Fatalf("retargeted map has %d entries, want %d", got, oldMapLen)
	}
	// Every b0-local segment must now resolve to the same b1-local
	// segment its primary-space twin did.
	b1Old := make(map[storage.SegmentID]storage.SegmentID)
	for p, l := range newPrimaryMap {
		b1Old[p] = l
	}
	for p, b0Seg := range newPrimaryMap {
		want, ok := b1.LogMap().Lookup(b0Seg)
		_ = want
		if !ok {
			t.Fatalf("b1 map missing new-primary segment %d (was primary %d)", b0Seg, p)
		}
	}
}

func TestNoReplicationChargesNothingRemote(t *testing.T) {
	r := newRig(t, NoReplication, 0)
	r.load(1500, 30)
	pc := r.cyP.Snapshot()
	if pc[metrics.CompLogReplication] != 0 || pc[metrics.CompSendIndex] != 0 || pc[metrics.CompRewriteIndex] != 0 {
		t.Fatalf("No-Replication charged replication cycles: %v", pc)
	}
	if r.epP.TxBytes() != 0 {
		t.Fatalf("No-Replication sent %d bytes", r.epP.TxBytes())
	}
}

func TestThreeWayReplicationBothBackupsConsistent(t *testing.T) {
	r := newRig(t, SendIndex, 2)
	r.load(2500, 50)
	l0 := r.backups[0].LevelStates(lsmOpts().MaxLevels)
	l1 := r.backups[1].LevelStates(lsmOpts().MaxLevels)
	for i := range l0 {
		if l0[i].NumKeys != l1[i].NumKeys {
			t.Fatalf("backups disagree at level %d: %d vs %d", i+1, l0[i].NumKeys, l1[i].NumKeys)
		}
	}
}

func TestSegMapLazyResolveAndRetarget(t *testing.T) {
	dev, _ := storage.NewMemDevice(4096, 0)
	defer dev.Close()
	m := NewSegMap(dev)
	a, err := m.Resolve(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := m.Resolve(100)
	if a != a2 {
		t.Fatal("Resolve not idempotent")
	}
	if _, ok := m.Lookup(200); ok {
		t.Fatal("Lookup allocated")
	}
	b, _ := m.Resolve(200)
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Retarget: new primary maps old segs 100→500, 200→600.
	if err := m.Retarget(map[storage.SegmentID]storage.SegmentID{100: 500, 200: 600}); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Lookup(500); !ok || got != a {
		t.Fatalf("Lookup(500) = %d, %v", got, ok)
	}
	if got, ok := m.Lookup(600); !ok || got != b {
		t.Fatalf("Lookup(600) = %d, %v", got, ok)
	}
}

func TestSegMapFreeAll(t *testing.T) {
	dev, _ := storage.NewMemDevice(4096, 0)
	defer dev.Close()
	m := NewSegMap(dev)
	_, _ = m.Resolve(1)
	_, _ = m.Resolve(2)
	if dev.Stats().SegmentsLive != 2 {
		t.Fatalf("live = %d", dev.Stats().SegmentsLive)
	}
	if err := m.FreeAll(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().SegmentsLive != 0 || m.Len() != 0 {
		t.Fatalf("after FreeAll: live=%d len=%d", dev.Stats().SegmentsLive, m.Len())
	}
}

func TestModeStrings(t *testing.T) {
	if NoReplication.String() != "No-Replication" || SendIndex.String() != "Send-Index" || BuildIndex.String() != "Build-Index" {
		t.Fatal("mode names wrong")
	}
}

// TestBackupLogAllocatesNoTail: a backup's value log only adopts
// segments until promotion, so a fresh backup holds no device segment —
// no tail it would never write — and a Build-Index backup holds none
// until its first flush. Under Send-Index a shipped L1 that points into
// the primary's unflushed tail maps that tail to a local segment, and
// promotion adopts the tail into exactly that segment.
func TestBackupLogAllocatesNoTail(t *testing.T) {
	for _, mode := range []Mode{SendIndex, BuildIndex} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, 1)
			if live := r.devB[0].Stats().SegmentsLive; live != 0 {
				t.Fatalf("a fresh backup holds %d device segments, want 0", live)
			}
			// 300 records fit in one 16 KiB log segment: the L0 job of the
			// first 256 ships leaves pointing into the unflushed tail.
			r.putKeys(300)
			if mode == BuildIndex {
				if live := r.devB[0].Stats().SegmentsLive; live != 0 {
					t.Fatalf("a Build-Index backup holds %d device segments before its first flush, want 0", live)
				}
				return
			}
			b := r.backups[0]
			local, mapped, err := b.LogMap().UnflushedLocal()
			if err != nil || !mapped {
				t.Fatalf("the primary's tail is not mapped on the backup: %v, %v", mapped, err)
			}
			r.promoteAndCheck(300)
			if tail := b.DB().Log().TailSegment(); tail != local {
				t.Fatalf("promotion adopted the tail into segment %d, the log map names %d", tail, local)
			}
		})
	}
}
