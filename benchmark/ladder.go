package main

import (
	"fmt"
	"sort"
	"time"

	"tebis/internal/btree"
	"tebis/internal/integrity"
	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/memtable"
	"tebis/internal/metrics"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
	"tebis/internal/vlog"
	"tebis/internal/wire"
	"tebis/internal/ycsb"
)

// The ladder replays the first ladderOps ops of a workload's stream,
// single-threaded, through successively larger stand-alone stacks built
// from the layers' public constructors, and times each call from the
// outside. Rung by rung: wire and rdma (the bytes of a request and its
// reply), memtable and vlog (the two halves of an L0 insert or a get),
// lsm (one engine per region, nil listener), and replica (the same
// engines with a Primary and one Backup attached, Send-Index and then
// Build-Index). btree, shipcodec and storage are timed over the tree
// that the stand-alone log's records build. A layer's self time is its
// span minus the next-inner rung's span for the same op index.

// span is one timed call, in ns from the start of its rung's replay.
type span struct{ start, end int64 }

// spanSet holds one rung's spans, indexed by op index. A zero span
// means the op did not reach the rung (a read has no vlog.append).
type spanSet struct {
	name   string // the rung; the op kind completes a span's name
	parent string // the next-outer rung
	spans  []span
	kinds  []ycsb.OpKind
}

func newSpanSet(name, parent string, n int) *spanSet {
	return &spanSet{name: name, parent: parent, spans: make([]span, n), kinds: make([]ycsb.OpKind, n)}
}

func (s *spanSet) put(i int, kind ycsb.OpKind, start, end int64) {
	s.spans[i], s.kinds[i] = span{start, end}, kind
}

// medianDur is the median duration of the spans whose kind keep accepts.
func (s *spanSet) medianDur(keep func(ycsb.OpKind) bool) float64 {
	var d []int64
	for i, sp := range s.spans {
		if sp.end > 0 && keep(s.kinds[i]) {
			d = append(d, sp.end-sp.start)
		}
	}
	return medianNS(d)
}

// selfTime is the median over ops of outer's span minus inner's, for
// the ops both rungs saw and keep accepts.
func selfTime(outer, inner *spanSet, keep func(ycsb.OpKind) bool) float64 {
	var d []int64
	for i, o := range outer.spans {
		if i >= len(inner.spans) {
			break
		}
		if in := inner.spans[i]; o.end > 0 && in.end > 0 && keep(outer.kinds[i]) {
			d = append(d, (o.end-o.start)-(in.end-in.start))
		}
	}
	return medianNS(d)
}

// batchTimer collects the per-op times of a micro rung: each sample is
// one batch's wall time divided by the ops it covered.
type batchTimer struct {
	perOp []int64
	set   *spanSet
	epoch time.Time
}

func (l *ladder) timer(name, parent string) *batchTimer {
	return &batchTimer{set: l.set(name, parent), epoch: time.Now()}
}

// book records that the ops at positions idx of batch (whose first op
// has stream index first) together ran from t0 until now.
func (b *batchTimer) book(first int, batch []op, idx []int, t0 time.Time) {
	if len(idx) == 0 {
		return
	}
	each := int64(time.Since(t0)) / int64(len(idx))
	b.perOp = append(b.perOp, each)
	base := int64(t0.Sub(b.epoch))
	for n, k := range idx {
		b.set.put(first+k, batch[k].kind, base+int64(n)*each, base+int64(n+1)*each)
	}
}

func (b *batchTimer) median() float64 { return medianNS(b.perOp) }

// positions returns where batch's writes and reads are, and all of it.
func positions(batch []op) (writes, reads, all []int) {
	for k, o := range batch {
		all = append(all, k)
		switch {
		case o.isWrite():
			writes = append(writes, k)
		case o.kind == ycsb.OpRead:
			reads = append(reads, k)
		}
	}
	return writes, reads, all
}

// ladder is one traced run's stand-alone measurements.
type ladder struct {
	w    workloadDef
	sz   sizes
	seed int64
	n    int // ops replayed
	out  map[string]float64
	sets []*spanSet
	// lsmSet and replicaSet are the two engine rungs' spans (also in sets).
	lsmSet, replicaSet *spanSet
}

func (l *ladder) set(name, parent string) *spanSet {
	s := newSpanSet(name, parent, l.n)
	l.sets = append(l.sets, s)
	return s
}

func (l *ladder) replay(fn func(first int, batch []op) error) error {
	return replay(l.w, l.sz, l.seed, l.n, fn)
}

func runLadder(w workloadDef, sz sizes, seed int64) (*ladder, error) {
	l := &ladder{w: w, sz: sz, seed: seed, n: sz.ladderOps, out: map[string]float64{}}
	if err := l.transport(); err != nil {
		return nil, fmt.Errorf("ladder transport: %w", err)
	}
	if err := l.engineParts(); err != nil {
		return nil, fmt.Errorf("ladder engine parts: %w", err)
	}
	for _, mode := range []replica.Mode{replica.NoReplication, replica.SendIndex, replica.BuildIndex} {
		if err := l.engines(mode); err != nil {
			return nil, fmt.Errorf("ladder %v: %w", mode, err)
		}
	}
	return l, nil
}

// ---- wire and rdma ----

// wireReply is the typed reply a server would encode for an op.
type wireReply struct {
	op   wire.Op
	get  wire.GetReply
	scan wire.ScanReply
}

func (r wireReply) encode() []byte {
	switch r.op {
	case wire.OpGetReply:
		return r.get.Encode(nil)
	case wire.OpScanReply:
		return r.scan.Encode(nil)
	}
	return wire.StatusReply{}.Encode(nil)
}

// replyFor builds the reply to o: the record's value for a get, and for
// a scan as many of the following records' pairs as the server's reply
// budget (a 4 KiB slot) admits, up to scanLen.
func replyFor(o op, orc *oracle, records uint64) wireReply {
	switch o.kind {
	case ycsb.OpRead:
		_, v := orc.pair(o.rec)
		return wireReply{op: wire.OpGetReply, get: wire.GetReply{Found: true, TotalSize: uint32(len(v)), Value: append([]byte(nil), v...)}}
	case ycsb.OpScan:
		r := wireReply{op: wire.OpScanReply}
		budget, size := 4096-wire.HeaderSize-64, 0
		for i := uint64(1); i <= scanLen; i++ {
			k, v := orc.pair((o.rec + i) % records)
			p := kv.Pair{Key: k, Value: v}.Clone()
			if size += p.Size() + 8; size > budget && len(r.scan.Pairs) > 0 {
				break
			}
			r.scan.Pairs = append(r.scan.Pairs, p)
		}
		return r
	}
	return wireReply{op: wire.OpPutReply}
}

// encodeMessage frames payload the way client and server do: a fresh
// buffer of the padded size.
func encodeMessage(h wire.Header, payload []byte) ([]byte, error) {
	msg := make([]byte, wire.MessageSize(len(payload)))
	_, err := wire.EncodeMessage(msg, h, payload)
	return msg, err
}

func encodeRequest(o op, id uint64) (msg []byte, payloadLen int, err error) {
	h := wire.Header{RequestID: id, ReplySize: 1024, SentAt: int64(id)}
	var payload []byte
	switch o.kind {
	case ycsb.OpRead:
		h.Opcode, payload = wire.OpGet, wire.GetReq{Key: o.key}.Encode(nil)
	case ycsb.OpScan:
		h.Opcode, payload = wire.OpScan, wire.ScanReq{Start: o.key, Count: scanLen}.Encode(nil)
	default:
		h.Opcode, payload = wire.OpPut, wire.PutReq{Key: o.key, Value: o.value}.Encode(nil)
	}
	msg, err = encodeMessage(h, payload)
	return msg, len(payload), err
}

func decodeRequest(o op, msg []byte) error {
	_, body, err := wire.DecodeMessage(msg)
	if err != nil {
		return err
	}
	switch o.kind {
	case ycsb.OpRead:
		_, err = wire.DecodeGetReq(body)
	case ycsb.OpScan:
		_, err = wire.DecodeScanReq(body)
	default:
		_, err = wire.DecodePutReq(body)
	}
	return err
}

func decodeReply(o op, msg []byte) error {
	_, body, err := wire.DecodeMessage(msg)
	if err != nil {
		return err
	}
	switch o.kind {
	case ycsb.OpRead:
		_, err = wire.DecodeGetReply(body)
	case ycsb.OpScan:
		_, err = wire.DecodeScanReply(body)
	default:
		_, err = wire.DecodeStatusReply(body)
	}
	return err
}

// ring writes msg through qp into mr at a rotating offset and waits for
// the completion, as client and server do for every message.
type ring struct {
	qp  *rdma.QP
	mr  *rdma.MemoryRegion
	off int
}

func (r *ring) write(msg []byte) error {
	if r.off+len(msg) > r.mr.Size() {
		r.off = 0
	}
	if err := r.qp.Write(r.mr.RKey(), r.off, msg, 0); err != nil {
		return err
	}
	r.off += len(msg)
	_, err := r.qp.WaitCompletion()
	return err
}

// transport is the wire and rdma rungs: every op's request and reply
// are encoded as client and server encode them, written through a QP
// into registered memory, and decoded again.
func (l *ladder) transport() error {
	epC, epS := rdma.NewEndpoint("ladder-client"), rdma.NewEndpoint("ladder-server")
	reqMR, err := epS.Register(server.DefaultBufferSize)
	if err != nil {
		return err
	}
	repMR, err := epC.Register(server.DefaultBufferSize)
	if err != nil {
		return err
	}
	reqRing := &ring{qp: rdma.Connect(epC, epS, 1024), mr: reqMR}
	repRing := &ring{qp: rdma.Connect(epS, epC, 1024), mr: repMR}
	defer reqRing.qp.Close()
	defer repRing.qp.Close()

	enc, dec, rd := l.timer("wire.encode", "client"), l.timer("wire.decode", "client"), l.timer("rdma.write", "client")
	orc := newOracle(l.w.Mix)
	records := l.sz.records
	if records == 0 {
		records = uint64(l.sz.ops)
	}
	var msgBytes, padBytes, ops uint64
	var id uint64
	replies := make([]wireReply, batchSize)
	reqs, reps := make([][]byte, batchSize), make([][]byte, batchSize)

	err = l.replay(func(first int, batch []op) error {
		_, _, all := positions(batch)
		for k, o := range batch {
			replies[k] = replyFor(o, orc, records)
		}
		t0 := time.Now()
		for k, o := range batch {
			id++
			req, reqLen, err := encodeRequest(o, id)
			if err != nil {
				return err
			}
			payload := replies[k].encode()
			rep, err := encodeMessage(wire.Header{Opcode: replies[k].op, RequestID: id}, payload)
			if err != nil {
				return err
			}
			reqs[k], reps[k] = req, rep
			padBytes += uint64(len(req) + len(rep) - 2*wire.HeaderSize - reqLen - len(payload))
		}
		enc.book(first, batch, all, t0)

		t0 = time.Now()
		for k := range batch {
			if err := reqRing.write(reqs[k]); err != nil {
				return err
			}
			if err := repRing.write(reps[k]); err != nil {
				return err
			}
		}
		rd.book(first, batch, all, t0)

		t0 = time.Now()
		for k, o := range batch {
			if err := decodeRequest(o, reqs[k]); err != nil {
				return err
			}
			if err := decodeReply(o, reps[k]); err != nil {
				return err
			}
		}
		dec.book(first, batch, all, t0)

		for k := range batch {
			ops++
			msgBytes += uint64(len(reqs[k]) + len(reps[k]))
		}
		return nil
	})
	if err != nil || ops == 0 {
		return err
	}
	l.out["wire.encode_ns"] = enc.median()
	l.out["wire.decode_ns"] = dec.median()
	l.out["wire.msg_bytes_per_op"] = float64(msgBytes) / float64(ops)
	l.out["wire.pad_frac"] = float64(padBytes) / float64(msgBytes)
	l.out["rdma.write_ns"] = rd.median()
	l.out["rdma.bytes_per_op"] = float64(epC.TxBytes()+epS.TxBytes()) / float64(ops)
	return nil
}

// ---- memtable, vlog, btree, shipcodec, storage ----

// engineParts times the pieces an engine is made of. A stand-alone log
// holds the preload and takes the stream's writes; a memtable cut every
// l0MaxKeys inserts plays L0. The records the log ends up with then
// build one B+ tree, whose segment images feed the rewrite, ship-codec
// and framed-device timings, and which the stream's reads look up.
func (l *ladder) engineParts() error {
	dev, err := storage.NewMemDevice(segmentSize, 0)
	if err != nil {
		return err
	}
	defer dev.Close()
	log, err := vlog.New(dev)
	if err != nil {
		return err
	}
	offs := map[uint64]storage.Offset{} // record index -> its newest log offset
	mt := memtable.New(l.seed)
	for t := 0; t < numClients; t++ {
		g := preloadStream(l.w, l.sz, t)
		for {
			o, ok := g.Next()
			if !ok {
				break
			}
			res, err := log.Append(o.Key, o.Value, false)
			if err != nil {
				return err
			}
			rec, _ := recordOf(o.Key)
			offs[rec] = res.Off
			if rec < l0MaxKeys/2 {
				// Half an L0: what a region's table holds on average when
				// a get arrives.
				mt.Insert(append([]byte(nil), o.Key...), res.Off, false)
			}
		}
	}

	app, ins := l.timer("vlog.append", "lsm"), l.timer("memtable.insert", "lsm")
	vget, mget := l.timer("vlog.get", "lsm"), l.timer("memtable.get", "lsm")
	written0 := dev.Stats().BytesWritten
	var appends uint64
	newOffs := make([]storage.Offset, batchSize)
	err = l.replay(func(first int, batch []op) error {
		writes, reads, _ := positions(batch)
		t0 := time.Now()
		for _, k := range writes {
			res, err := log.Append(batch[k].key, batch[k].value, false)
			if err != nil {
				return err
			}
			newOffs[k] = res.Off
		}
		app.book(first, batch, writes, t0)
		if mt.Len()+len(writes) > l0MaxKeys {
			mt = memtable.New(l.seed + int64(first))
		}
		keys := make([][]byte, len(batch))
		for _, k := range writes {
			keys[k] = append([]byte(nil), batch[k].key...) // the table keeps the key
		}
		t0 = time.Now()
		for _, k := range writes {
			mt.Insert(keys[k], newOffs[k], false)
		}
		ins.book(first, batch, writes, t0)
		for _, k := range writes {
			offs[batch[k].rec] = newOffs[k]
			appends++
		}

		t0 = time.Now()
		for _, k := range reads {
			mt.Get(batch[k].key)
		}
		mget.book(first, batch, reads, t0)
		t0 = time.Now()
		for _, k := range reads {
			if _, _, err := log.Get(offs[batch[k].rec]); err != nil {
				return err
			}
		}
		vget.book(first, batch, reads, t0)
		return nil
	})
	if err != nil {
		return err
	}
	l.out["vlog.append_ns"] = app.median()
	l.out["memtable.insert_ns"] = ins.median()
	l.out["vlog.get_ns"] = vget.median()
	l.out["memtable.get_ns"] = mget.median()
	if appends > 0 {
		l.out["vlog.dev_write_bytes_per_op"] = float64(dev.Stats().BytesWritten-written0) / float64(appends)
	}
	return l.treeParts(dev, log, offs)
}

// treeParts builds one tree over every record in offs and times build,
// rewrite, ship codec, framed device I/O and lookups over it.
func (l *ladder) treeParts(dev *storage.MemDevice, log *vlog.Log, offs map[uint64]storage.Offset) error {
	if len(offs) == 0 {
		return nil
	}
	type entry struct {
		key []byte
		off storage.Offset
	}
	orc := newOracle(l.w.Mix)
	entries := make([]entry, 0, len(offs))
	for rec, off := range offs {
		k, _ := orc.pair(rec)
		entries = append(entries, entry{append([]byte(nil), k...), off})
	}
	sort.Slice(entries, func(i, j int) bool { return kv.Compare(entries[i].key, entries[j].key) < 0 })

	var images [][]byte
	t0 := time.Now()
	b, err := btree.NewBuilder(dev, nodeSize, func(es btree.EmittedSegment) error {
		images = append(images, append([]byte(nil), es.Data...))
		return nil
	})
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := b.Add(e.key, e.off, false); err != nil {
			return err
		}
	}
	built, err := b.Finish()
	if err != nil {
		return err
	}
	l.out["btree.build_ns_per_key"] = float64(time.Since(t0)) / float64(len(entries))

	var kb float64
	for _, img := range images {
		kb += float64(len(img)) / 1024
	}
	geo := dev.Geometry()
	shift := func(s storage.SegmentID) (storage.SegmentID, error) { return s + 1000, nil }
	var rewrite, encode, decode, write, read time.Duration
	var pointers, frameBytes int

	fdev, err := storage.NewMemDevice(segmentSize, 0)
	if err != nil {
		return err
	}
	defer fdev.Close()
	vdev := storage.AsVerifying(fdev)
	usable := int(storage.UsableCapacity(vdev)) / nodeSize * nodeSize
	block := make([]byte, nodeSize)

	for _, img := range images {
		scratch := append([]byte(nil), img...)
		t0 = time.Now()
		n, err := btree.RewriteSegment(scratch, nodeSize, geo, shift, shift)
		rewrite += time.Since(t0)
		if err != nil {
			return err
		}
		pointers += n

		t0 = time.Now()
		frame, err := shipcodec.Encode(shipcodec.Flate, img)
		encode += time.Since(t0)
		if err != nil {
			return err
		}
		frameBytes += len(frame)
		t0 = time.Now()
		_, err = shipcodec.Decode(frame, nil, nodeSize)
		decode += time.Since(t0)
		if err != nil {
			return err
		}

		seg, err := vdev.Alloc()
		if err != nil {
			return err
		}
		payload := img
		if len(payload) > usable {
			payload = payload[:usable]
		}
		t0 = time.Now()
		err = storage.WriteFramed(vdev, geo.Pack(seg, 0), payload, integrity.KindIndex)
		write += time.Since(t0)
		if err != nil {
			return err
		}
		vdev.Invalidate(seg) // as after a reopen: the first read verifies the CRC
		t0 = time.Now()
		for within := 0; within < len(payload); within += nodeSize {
			if err := vdev.ReadAt(geo.Pack(seg, int64(within)), block); err != nil {
				return err
			}
		}
		read += time.Since(t0)
	}
	l.out["btree.rewrite_ns_per_kb"] = float64(rewrite) / kb
	l.out["btree.rewrite_ptrs_per_kb"] = float64(pointers) / kb
	l.out["shipcodec.encode_ns_per_kb"] = float64(encode) / kb
	l.out["shipcodec.decode_ns_per_kb"] = float64(decode) / kb
	l.out["shipcodec.wire_ratio"] = float64(frameBytes) / (kb * 1024)
	l.out["storage.write_ns_per_kb"] = float64(write) / kb
	l.out["storage.read_ns_per_kb"] = float64(read) / kb

	tree := btree.NewTree(dev, nodeSize, built.Root)
	get := l.timer("btree.get", "lsm")
	read0 := dev.Stats().BytesRead
	var gets uint64
	err = l.replay(func(first int, batch []op) error {
		_, reads, _ := positions(batch)
		t0 := time.Now()
		for _, k := range reads {
			if _, _, found, err := tree.Get(batch[k].key, log.GetKey); err != nil || !found {
				return fmt.Errorf("btree get: found=%v err=%v", found, err)
			}
		}
		get.book(first, batch, reads, t0)
		gets += uint64(len(reads))
		return nil
	})
	if err != nil {
		return err
	}
	l.out["btree.get_ns"] = get.median()
	if gets > 0 {
		l.out["btree.dev_read_bytes_per_get"] = float64(dev.Stats().BytesRead-read0) / float64(gets)
	}
	return nil
}

// ---- lsm and replica ----

// stack is the stand-alone engine rung: one lsm.DB per region over one
// device, routed as the cluster routes, with (mode permitting) a
// replica.Primary and one Backup per region on a second device — the
// rig of internal/replica's tests, times six.
type stack struct {
	rmap     *region.Map
	dbs      []*lsm.DB
	prims    []*replica.Primary
	backs    []*replica.Backup
	devP     *storage.MemDevice
	devB     *storage.MemDevice
	cyB      *metrics.Cycles
	epP, epB *rdma.Endpoint
}

func engineOptions() lsm.Options {
	return lsm.Options{NodeSize: nodeSize, GrowthFactor: growth, L0MaxKeys: l0MaxKeys, MaxLevels: maxLevels}
}

func newStack(mode replica.Mode) (*stack, error) {
	s := &stack{cyB: &metrics.Cycles{}, epP: rdma.NewEndpoint("ladder-primary"), epB: rdma.NewEndpoint("ladder-backup")}
	var err error
	if s.rmap, err = region.Partition(numRegions, []string{"ladder-primary"}, 0); err != nil {
		return nil, err
	}
	if s.devP, err = storage.NewMemDevice(segmentSize, 0); err != nil {
		return nil, err
	}
	if s.devB, err = storage.NewMemDevice(segmentSize, 0); err != nil {
		return nil, err
	}
	cost := metrics.DefaultCostModel()
	for i := range s.rmap.Regions {
		opt := engineOptions()
		opt.Device, opt.Seed = s.devP, int64(i+1)
		if mode == replica.NoReplication {
			db, err := lsm.New(opt)
			if err != nil {
				return nil, err
			}
			s.dbs = append(s.dbs, db)
			continue
		}
		// Ship codec and delta on, as cluster.New configures servers.
		p := replica.NewPrimary(replica.PrimaryConfig{
			RegionID: region.ID(i), ServerName: "ladder-primary", Mode: mode,
			Endpoint: s.epP, Cost: cost,
			ShipCodec: shipcodec.Flate, ShipDelta: true, ShipPageSize: nodeSize,
		})
		opt.Listener = p
		db, err := lsm.New(opt)
		if err != nil {
			return nil, err
		}
		p.SetDB(db)
		bopt := engineOptions()
		bopt.Seed = int64(i + 101)
		b, err := replica.NewBackup(replica.BackupConfig{
			RegionID: region.ID(i), ServerName: "ladder-backup", Mode: mode,
			Device: s.devB, Endpoint: s.epB, Cycles: s.cyB, Cost: cost, LSM: bopt,
		})
		if err != nil {
			return nil, err
		}
		replica.Attach(p, b)
		s.dbs, s.prims, s.backs = append(s.dbs, db), append(s.prims, p), append(s.backs, b)
	}
	return s, nil
}

func (s *stack) route(key []byte) (*lsm.DB, error) {
	r, err := s.rmap.Lookup(key)
	if err != nil {
		return nil, err
	}
	return s.dbs[r.ID], nil
}

// flush drains every engine, the backups' own ones (Build-Index)
// included, so both schemes are charged their full maintenance work.
func (s *stack) flush() error {
	for _, db := range s.dbs {
		if err := db.Flush(); err != nil {
			return err
		}
	}
	for _, b := range s.backs {
		if db := b.DB(); db != nil {
			if err := db.Flush(); err != nil {
				return err
			}
		}
		if err := b.Err(); err != nil {
			return err
		}
	}
	for _, p := range s.prims {
		if err := p.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (s *stack) resetCounters() {
	s.devP.ResetStats()
	s.devB.ResetStats()
	s.cyB.Reset()
	s.epP.ResetCounters()
	s.epB.ResetCounters()
}

func (s *stack) close() {
	for _, p := range s.prims {
		p.DetachAll()
	}
	for _, b := range s.backs {
		b.Crash() // reaps the backup's goroutines
	}
	for _, db := range s.dbs {
		db.Close()
	}
	s.devP.Close()
	s.devB.Close()
}

// engines replays the stream through a stack in the given mode, timing
// every DB call. NoReplication is the lsm rung; SendIndex the replica
// rung, whose spans are the client spans' children; BuildIndex is run
// for its backup-side counters only.
func (l *ladder) engines(mode replica.Mode) error {
	s, err := newStack(mode)
	if err != nil {
		return err
	}
	defer s.close()
	for t := 0; t < numClients; t++ {
		g := preloadStream(l.w, l.sz, t)
		for {
			o, ok := g.Next()
			if !ok {
				break
			}
			db, err := s.route(o.Key)
			if err != nil {
				return err
			}
			if err := db.Put(o.Key, o.Value); err != nil {
				return err
			}
		}
	}
	if err := s.flush(); err != nil {
		return err
	}
	s.resetCounters()

	var set *spanSet
	switch mode {
	case replica.NoReplication:
		set = l.set("lsm", "replica")
		l.lsmSet = set
	case replica.SendIndex:
		set = l.set("replica", "client")
		l.replicaSet = set
	default:
		set = newSpanSet("", "", l.n) // Build-Index spans are not reported
	}
	epoch := time.Now()
	var ops, gets, scans, getBytes, scanBytes uint64
	err = l.replay(func(first int, batch []op) error {
		for k, o := range batch {
			db, err := s.route(o.key)
			if err != nil {
				return err
			}
			read0 := s.devP.Stats().BytesRead
			t0 := time.Now()
			switch o.kind {
			case ycsb.OpRead:
				_, found, err := db.Get(o.key)
				if err != nil || !found {
					return fmt.Errorf("get %q: found=%v err=%v", o.key, found, err)
				}
			case ycsb.OpScan:
				_, err = db.ScanN(o.key, scanLen)
			default:
				err = db.Put(o.key, o.value)
			}
			end := time.Now()
			if err != nil {
				return err
			}
			set.put(first+k, o.kind, int64(t0.Sub(epoch)), int64(end.Sub(epoch)))
			ops++
			switch o.kind {
			case ycsb.OpRead:
				gets++
				getBytes += s.devP.Stats().BytesRead - read0
			case ycsb.OpScan:
				scans++
				scanBytes += s.devP.Stats().BytesRead - read0
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	if ops == 0 {
		return nil
	}
	perOp := func(v uint64) float64 { return float64(v) / float64(ops) }
	backup := func(prefix string) {
		st := s.devB.Stats()
		l.out[prefix+"net_bytes_per_op"] = perOp(s.epP.TxBytes() + s.epP.RxBytes() + s.epB.TxBytes() + s.epB.RxBytes())
		l.out[prefix+"backup_kcycles_per_op"] = perOp(s.cyB.Snapshot().Total()) / 1000
		l.out[prefix+"backup_dev_read_bytes_per_op"] = perOp(st.BytesRead)
		l.out[prefix+"backup_dev_write_bytes_per_op"] = perOp(st.BytesWritten)
	}
	switch mode {
	case replica.NoReplication:
		l.out["lsm.put_ns"] = set.medianDur(isWriteOp)
		l.out["lsm.get_ns"] = set.medianDur(isRead)
		l.out["lsm.scan_ns"] = set.medianDur(isScan)
		if gets > 0 {
			l.out["lsm.dev_read_bytes_per_get"] = float64(getBytes) / float64(gets)
		}
		if scans > 0 {
			l.out["lsm.dev_read_bytes_per_scan"] = float64(scanBytes) / float64(scans)
		}
	case replica.SendIndex:
		l.out["replica.put_ns"] = set.medianDur(isWriteOp)
		l.out["replica.op_ns"] = set.medianDur(anyKind)
		backup("replica.")
	case replica.BuildIndex:
		backup("replica.buildindex_")
	}
	return nil
}
