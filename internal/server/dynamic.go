package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/wire"
)

// Freeze-window bounds. A freeze is meant to last milliseconds — the
// time to ship a log tail and flip the map — so both limits are only
// backstops against a master that died mid-reconfiguration.
const (
	// freezeDrainTimeout bounds how long Freeze waits for admitted ops to
	// finish before giving up.
	freezeDrainTimeout = 10 * time.Second
	// freezeWaitTimeout bounds how long a parked op waits for Unfreeze
	// before failing back to the client.
	freezeWaitTimeout = 30 * time.Second
)

// regionStats is one hosted region's cumulative traffic counters and
// service-latency histogram, the source of the tebis_region_* metric
// families.
type regionStats struct {
	reads, writes, scans, bytes atomic.Uint64
	lat                         *metrics.Histogram
}

func newRegionStats() *regionStats {
	return &regionStats{lat: metrics.NewHistogram()}
}

// record accounts one completed op addressed to the region.
func (st *regionStats) record(op wire.Op, payloadBytes int, d time.Duration) {
	if st == nil {
		return
	}
	switch op {
	case wire.OpPut, wire.OpDelete:
		st.writes.Add(1)
	case wire.OpGet, wire.OpGetRest:
		st.reads.Add(1)
	case wire.OpScan:
		st.scans.Add(1)
	default:
		return
	}
	st.bytes.Add(uint64(payloadBytes))
	st.lat.Record(d)
}

// regionRef is an admitted op's hold on the region it addressed: the
// engine serving it, and the inflight count Freeze drains. A value, not
// a closure: acquiring a region allocates nothing.
type regionRef struct {
	db *lsm.DB
	// end is the addressed region's exclusive upper bound (nil for +inf):
	// the server does not range-check a put, so a scan stops here to keep
	// its reply inside the addressed region. It is the hosted
	// descriptor's own slice — descriptors are replaced, never edited, so
	// it is safe to read without the lock, and must not be written.
	end []byte
	// stats is the addressed region's traffic sink. It is set whenever
	// the region is hosted here, even if the op was then refused.
	stats *regionStats

	hr *hostedRegion
}

// release drops the inflight hold; the caller invokes it when the op
// completes.
func (r regionRef) release() { r.hr.inflight.Add(-1) }

// acquire resolves the engine serving region id for one op, enforcing
// the epoch check (epoch 0 means unchecked) and, for writes, the lease.
// Ops arriving during a freeze window park until the window ends, then
// re-resolve against the post-reconfiguration state — a parked write
// routed with the old epoch bounces back as wrong-epoch instead of
// landing on a range the region no longer covers. On success the
// region's inflight count is held until the ref is released.
func (s *Server) acquire(id region.ID, epoch uint32, write bool) (regionRef, error) {
	for {
		ref, wait, err := s.tryAcquire(id, epoch, write)
		if err == nil || wait == nil {
			return ref, err
		}
		select {
		case <-wait:
			// Freeze window ended; re-resolve.
		case <-s.stop:
			return ref, ErrClosed
		case <-time.After(freezeWaitTimeout):
			return ref, err
		}
	}
}

// tryAcquire is one resolution attempt; a non-nil wait channel means the
// region is frozen and the caller should block on it and retry. On
// failure the ref carries nothing but stats.
func (s *Server) tryAcquire(id region.ID, epoch uint32, write bool) (regionRef, chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return regionRef{}, nil, ErrClosed
	}
	hr, ok := s.regions[id]
	if !ok {
		return regionRef{}, nil, ErrUnknownRegion
	}
	refused := regionRef{stats: hr.stats}
	if hr.frozen {
		return refused, hr.freezeCh, fmt.Errorf("server: region %d frozen for reconfiguration", id)
	}
	if epoch != 0 && epoch != hr.info.Epoch {
		return refused, nil, fmt.Errorf("%w: region %d is at epoch %d, request routed with %d",
			ErrWrongEpoch, id, hr.info.Epoch, epoch)
	}
	if hr.db == nil {
		return refused, nil, ErrNotPrimary
	}
	if write && !hr.lease.Valid(hr.info.Epoch) {
		return refused, nil, fmt.Errorf("%w: region %d at epoch %d", ErrNoLease, id, hr.info.Epoch)
	}
	hr.inflight.Add(1)
	return regionRef{db: hr.db, end: hr.info.End, stats: hr.stats, hr: hr}, nil, nil
}

// Freeze begins a reconfiguration freeze window on one hosted region:
// the lease is revoked, new ops (reads and writes both) park until
// Unfreeze, and already-admitted ops are drained before Freeze returns —
// so every acknowledged write strictly precedes the transfer that
// follows, and no read can observe the region mid-handoff. The frozen
// flag lives here on the host, not on the master: if the master dies
// mid-reconfiguration the region stays safely unserved until a new
// master completes or aborts the handoff.
func (s *Server) Freeze(id region.ID) error {
	s.mu.Lock()
	hr, ok := s.regions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownRegion, id)
	}
	if !hr.frozen {
		hr.frozen = true
		hr.freezeCh = make(chan struct{})
	}
	hr.lease = region.Lease{}
	s.mu.Unlock()

	deadline := time.Now().Add(freezeDrainTimeout)
	for hr.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("server: freeze of region %d: in-flight ops did not drain", id)
		}
		time.Sleep(20 * time.Microsecond)
	}
	s.cfg.Events.Record(obs.Event{
		Type: obs.EvFreeze, Node: s.cfg.Name,
		Msg:    "region frozen for reconfiguration, in-flight ops drained",
		Fields: map[string]string{"region": fmt.Sprint(id)},
	})
	return nil
}

// Unfreeze ends a freeze window: the region takes its
// post-reconfiguration descriptor and lease, and parked ops re-resolve
// against the new state (ops routed with the old epoch bounce to the
// client as wrong-epoch replies, forcing a map refresh).
func (s *Server) Unfreeze(r region.Region, l region.Lease) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	hr, ok := s.regions[r.ID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRegion, r.ID)
	}
	hr.info = r.Clone()
	hr.lease = l
	if hr.frozen {
		hr.frozen = false
		close(hr.freezeCh)
		hr.freezeCh = nil
	}
	s.cfg.Events.Record(obs.Event{
		Type: obs.EvUnfreeze, Node: s.cfg.Name,
		Msg:    "freeze window ended, region serving at new epoch",
		Fields: map[string]string{"region": fmt.Sprint(r.ID), "epoch": fmt.Sprint(r.Epoch)},
	})
	return nil
}

// Frozen reports whether a hosted region is inside a freeze window.
func (s *Server) Frozen(id region.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	hr, ok := s.regions[id]
	return ok && hr.frozen
}
