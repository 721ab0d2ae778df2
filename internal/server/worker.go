package server

import (
	"errors"
	"time"

	"tebis/internal/kv"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/wire"
)

// worker processes client requests from its private task queue and
// RDMA-writes replies into the client's reply buffer (§3.4.2).
type worker struct {
	s     *Server
	id    int
	queue chan task // nil for a spinning thread's own worker
	// spinner marks a spinning thread's own worker: it answers tasks on
	// the thread that detected them and must never park it, so an op on a
	// frozen region sets deferred instead and is left to a queue worker.
	spinner, deferred bool
	// served counts the tasks this worker took from its queue; only its
	// goroutine writes it.
	served int

	// Per-worker scratch, reused from op to op: the reply payload is
	// built straight in msg, behind its line — the engine appends
	// a get's value and a scan's pairs there as it reads them from the
	// log — and the message finished around it. Nothing here outlives
	// the op's reply write.
	msg wire.ReplyBuf
	// stats is the addressed region's sink, set by acquire for the op in
	// progress (nil when the op never resolved a hosted region).
	stats *regionStats
}

func newWorker(s *Server, id int) *worker {
	return &worker{s: s, id: id, queue: make(chan task, 4*s.cfg.TaskThreshold)}
}

func (w *worker) run() {
	defer w.s.wg.Done()
	for t := range w.queue {
		w.process(t)
		w.served++
	}
}

// process executes one request and replies. It reports false, with
// nothing answered and t left as it was, only on a spinning thread's
// worker for an op that would park on a frozen region.
func (w *worker) process(t task) bool {
	var (
		op      wire.Op
		flags   uint8
		payload []byte
	)
	start := time.Now()
	// rt is the sampled request's span context (nil for the common
	// unsampled case, so the hot path pays one compare). The dispatch
	// span covers detection-to-worker-pickup: the queue wait a loaded
	// server adds before any engine work starts.
	rt := w.s.trace.Request(t.hdr.TraceID)
	// The dispatch stage is everything between the client handing the
	// request to the wire and a worker starting on it: ring + wire
	// transfer, spinning-thread detection, and worker-queue wait. SentAt
	// (stamped on every request by same-process clients) bounds the whole
	// window — the attribution harness showed detection latency, not
	// worker-queue wait, is where dispatch tails hide; a request without
	// it is not timed. Every request feeds the admission controller's
	// queue-wait EWMA (a burst must register in milliseconds); only
	// sampled ones pay for span and stage records.
	if t.hdr.SentAt != 0 {
		wait := dispatchWait(t.hdr, start)
		waitStart := start.Add(-wait)
		w.s.ctrl.Observe(wait)
		if rt != nil {
			tenant := tenantLabel(t.hdr.Tenant)
			rt.SetTenant(tenant)
			rt.Record(obs.Span{Cat: "request", Name: "dispatch",
				Region: t.hdr.RegionID, HasRegion: true,
				Start: waitStart, Dur: wait})
			w.s.cfg.Stages.Record(metrics.StageDispatch, tenant, t.hdr.TraceID, wait)
		}
	}
	switch t.hdr.Opcode {
	case wire.OpNoop:
		op, payload = wire.OpNoopReply, w.statusOK()
	case wire.OpPut:
		op, flags, payload = w.doPut(t, false, rt)
	case wire.OpDelete:
		op, flags, payload = w.doPut(t, true, rt)
	case wire.OpGet:
		op, flags, payload = w.doGet(t)
	case wire.OpGetRest:
		op, flags, payload = w.doGetRest(t)
	case wire.OpScan:
		op, flags, payload = w.doScan(t)
	default:
		op, flags, payload = wire.OpNoopReply, wire.FlagError, badOpcodeText
	}
	if w.deferred {
		w.deferred, w.stats = false, nil
		return false
	}
	w.reply(t, op, flags, payload)
	if lat := w.s.opLat[t.hdr.Opcode]; lat != nil {
		elapsed := time.Since(start)
		lat.Record(elapsed)
		w.stats.record(t.hdr.Opcode, len(t.payload()), elapsed)
	}
	w.stats = nil
	w.s.recycle(t)
	return true
}

// dispatchWait is the dispatch stage of the request h heads, picked up at
// start: the time since its client stamped SentAt, of which the header
// carries the low 32 bits — so it is taken modulo 2^32 ns, exact for any
// wait under 4.29 s.
func dispatchWait(h wire.Header, start time.Time) time.Duration {
	return time.Duration(uint32(start.UnixNano()) - uint32(h.SentAt))
}

// acquire resolves the region t addresses (Server.acquire) and notes its
// stats sink for process, so an op takes s.mu once, not once to resolve
// and once more to account. A spinning thread's worker does not wait out
// a freeze window: it marks the op deferred.
func (w *worker) acquire(t task, write bool) (ref regionRef, err error) {
	id := region.ID(t.hdr.RegionID)
	if w.spinner {
		var wait chan struct{}
		ref, wait, err = w.s.tryAcquire(id, t.hdr.Epoch, write)
		w.deferred = wait != nil
	} else {
		ref, err = w.s.acquire(id, t.hdr.Epoch, write)
	}
	w.stats = ref.stats
	return ref, err
}

// statusOK encodes the OK status payload into the worker's scratch.
func (w *worker) statusOK() []byte {
	return wire.StatusReply{}.Encode(w.msg.Reserve(wire.StatusReply{}.Size()))
}

// errReply classifies engine errors for the client.
func errReply(err error, okOp wire.Op) (wire.Op, uint8, []byte) {
	if errors.Is(err, ErrWrongEpoch) || errors.Is(err, ErrNoLease) {
		// The region is hosted here but moved on: wrong-epoch refines
		// wrong-region, and both flags are set so pre-epoch clients still
		// take the refresh path.
		return okOp, wire.FlagError | wire.FlagWrongRegion | wire.FlagWrongEpoch, []byte(err.Error())
	}
	if errors.Is(err, ErrUnknownRegion) || errors.Is(err, ErrNotPrimary) {
		// Stale region map: tell the client to refresh (§3.1).
		return okOp, wire.FlagError | wire.FlagWrongRegion, []byte(err.Error())
	}
	return okOp, wire.FlagError, []byte(err.Error())
}

func (w *worker) doPut(t task, del bool, rt *obs.ReqTrace) (wire.Op, uint8, []byte) {
	okOp := wire.OpPutReply
	if del {
		okOp = wire.OpDeleteReply
	}
	req, err := wire.DecodePutReq(t.payload())
	if err != nil {
		return okOp, wire.FlagError, []byte(err.Error())
	}
	ref, err := w.acquire(t, true)
	if err != nil {
		return errReply(err, okOp)
	}
	defer ref.release()
	var applyStart time.Time
	if rt != nil {
		applyStart = time.Now()
	}
	if del {
		err = ref.db.DeleteTraced(req.Key, rt)
	} else {
		err = ref.db.PutTraced(req.Key, req.Value, rt)
	}
	if rt != nil {
		applyDur := time.Since(applyStart)
		rt.Record(obs.Span{Cat: "request", Name: "apply", Bytes: int64(len(req.Key) + len(req.Value)),
			Region: t.hdr.RegionID, HasRegion: true,
			Start: applyStart, Dur: applyDur})
		w.s.cfg.Stages.Record(metrics.StageApply, rt.Tenant(), t.hdr.TraceID, applyDur)
	}
	if err != nil {
		return okOp, wire.FlagError, []byte(err.Error())
	}
	if !del {
		// Dataset size: the denominator of the amplification gauges.
		w.s.dataset.Add(uint64(len(req.Key) + len(req.Value)))
	}
	return okOp, 0, w.statusOK()
}

// getReplyBudget returns how many value bytes fit in the client's reply
// slot for a get: the largest reply payload the slot holds, less the
// GetReply prefix.
func getReplyBudget(h wire.Header) int {
	return max(wire.MaxPayload(int(h.ReplySize))-wire.GetReplyPrefix, 0)
}

// scanReserve is what a scan's byte budget leaves of its reply slot: the
// reply's line, its pair count, its padding and its trailer fit in it
// with room to spare. A 4 KB slot's budget is 3904 bytes of pairs, so the
// pairs a scan returns do not depend on the reply's shape.
const scanReserve = 192

func (w *worker) doGet(t task) (wire.Op, uint8, []byte) {
	req, err := wire.DecodeGetReq(t.payload())
	if err != nil {
		return wire.OpGetReply, wire.FlagError, []byte(err.Error())
	}
	return w.getRange(t, req.Key, 0)
}

func (w *worker) doGetRest(t task) (wire.Op, uint8, []byte) {
	req, err := wire.DecodeGetRestReq(t.payload())
	if err != nil {
		return wire.OpGetReply, wire.FlagError, []byte(err.Error())
	}
	return w.getRange(t, req.Key, int(req.Offset))
}

// getRange answers a get (from 0) or a get-rest (from the offset the
// client has reached): the engine appends the value bytes from there
// on, as many as the client's reply slot holds and no more, behind the
// reply's prefix in w.msg, and the prefix is filled in afterwards. A
// value that reaches past the slot is sent FlagPartial and the client
// fetches the rest (§3.4.1); an offset past the value's end is a miss.
func (w *worker) getRange(t task, key []byte, from int) (wire.Op, uint8, []byte) {
	ref, err := w.acquire(t, false)
	if err != nil {
		return errReply(err, wire.OpGetReply)
	}
	defer ref.release()
	budget := getReplyBudget(t.hdr)
	rep := wire.BeginGetReply(w.msg.Reserve(wire.GetReplyPrefix + budget))
	rep, total, found, err := ref.db.GetRange(rep, key, from, budget)
	if err != nil {
		return wire.OpGetReply, wire.FlagError, []byte(err.Error())
	}
	var flags uint8
	switch {
	case !found || from > total:
		found, total, rep = false, 0, rep[:wire.GetReplyPrefix]
	case total-from > budget:
		flags |= wire.FlagPartial
	}
	wire.FinishGetReply(rep, found, uint32(total))
	return wire.OpGetReply, flags, rep
}

func (w *worker) doScan(t task) (wire.Op, uint8, []byte) {
	req, err := wire.DecodeScanReq(t.payload())
	if err != nil {
		return wire.OpScanReply, wire.FlagError, []byte(err.Error())
	}
	ref, err := w.acquire(t, false)
	if err != nil {
		return errReply(err, wire.OpScanReply)
	}
	defer ref.release()
	end := ref.end
	budget := int(t.hdr.ReplySize) - scanReserve
	// Each pair goes into the reply as the scan hands it over — it is
	// the scan's to overwrite once fn returns — and the count is filled
	// in at the end. The engine stops at the request's count, the reply's
	// budget and the region's bound — a put is not range-checked, so the
	// engine may hold keys outside the region, and the reply must not
	// carry them — and reads no record past them; fn's checks are a
	// backstop.
	rep := wire.BeginScanReply(w.msg.Reserve(4 + max(budget, 0)))
	count, size := 0, 0
	lim := lsm.Limit{Pairs: int(req.Count), Bytes: budget, PairOverhead: wire.ScanPairOverhead, End: end}
	err = ref.db.ScanLimit(req.Start, lim, func(p kv.Pair) bool {
		if end != nil && kv.Compare(p.Key, end) >= 0 {
			return false
		}
		size += p.Size() + wire.ScanPairOverhead
		if size > budget && count > 0 || count >= lim.Pairs {
			return false
		}
		rep = wire.AppendScanPair(rep, p)
		count++
		return true
	})
	if err != nil {
		return wire.OpScanReply, wire.FlagError, []byte(err.Error())
	}
	wire.FinishScanReply(rep, count)
	return wire.OpScanReply, 0, rep
}

// reply RDMA-writes the response into the client's reply slot. A result
// that outgrew the slot becomes an error; an error keeps its flags — the
// client acts on them (refresh the map, back off) — and as much of its
// text as the slot holds, which is at least what rides in a reply's line.
func (w *worker) reply(t task, op wire.Op, flags uint8, payload []byte) {
	if slot := int(t.hdr.ReplySize); wire.ReplyMessageSize(len(payload)) > slot {
		if flags&wire.FlagError == 0 {
			flags, payload = wire.FlagError, replyOverflowText
		}
		payload = payload[:min(len(payload), wire.MaxPayload(slot))]
	}
	w.s.sendReply(&w.msg, t, op, flags, payload)
	w.s.charge(metrics.CompReply, w.s.cfg.Cost.ReplyPerMessage)
}
