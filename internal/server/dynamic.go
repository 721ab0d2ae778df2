package server

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"tebis/internal/kv"
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
// service-latency histogram — the load signal the master's rebalancer
// diffs, and the source of the tebis_region_* metric families.
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

func (st *regionStats) load() region.Load {
	return region.Load{
		Reads:  st.reads.Load(),
		Writes: st.writes.Load(),
		Scans:  st.scans.Load(),
		Bytes:  st.bytes.Load(),
	}
}

// regionRef is an admitted op's hold on the region it addressed: the
// engine serving it, and the inflight counts Freeze drains. A value, not
// a closure: acquiring a region allocates nothing.
type regionRef struct {
	db *lsm.DB
	// end is the addressed region's exclusive upper bound (nil for +inf):
	// split children share the parent's engine, so range reads must stop
	// there rather than run into a sibling's keys. It is the hosted
	// descriptor's own slice — descriptors are replaced, never edited, so
	// it is safe to read without the lock, and must not be written.
	end []byte
	// stats is the addressed region's traffic sink. It is set whenever
	// the region is hosted here, even if the op was then refused.
	stats *regionStats

	hr, eng *hostedRegion
}

// release drops the inflight hold; the caller invokes it when the op
// completes.
func (r regionRef) release() {
	r.hr.inflight.Add(-1)
	if r.eng != r.hr {
		r.eng.inflight.Add(-1)
	}
}

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
// region (or its engine owner) is frozen and the caller should block on
// it and retry. On failure the ref carries nothing but stats.
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
	eng := hr
	if hr.isAlias {
		eng = s.regions[hr.owner]
		if eng == nil {
			return refused, nil, ErrUnknownRegion
		}
		if eng.frozen {
			return refused, eng.freezeCh, fmt.Errorf("server: region %d frozen for reconfiguration", hr.owner)
		}
	}
	if eng.db == nil {
		return refused, nil, ErrNotPrimary
	}
	if write && !hr.lease.Valid(hr.info.Epoch) {
		return refused, nil, fmt.Errorf("%w: region %d at epoch %d", ErrNoLease, id, hr.info.Epoch)
	}
	hr.inflight.Add(1)
	if eng != hr {
		// Hold the owner too: freezing the owner must drain alias ops that
		// run on its engine.
		eng.inflight.Add(1)
	}
	return regionRef{db: eng.db, end: hr.info.End, stats: hr.stats, hr: hr, eng: eng}, nil, nil
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

// SplitHosted installs the post-split state of a region this server
// serves: the left child keeps the engine, and the right child becomes
// an alias entry resolving to the same engine until a migration
// separates it. The master also calls this after a failover to recreate
// alias entries on a freshly promoted primary. Alias children can be
// split again; the new entry aliases the root engine owner.
func (s *Server) SplitHosted(left, right region.Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	hr, ok := s.regions[left.ID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRegion, left.ID)
	}
	owner := left.ID
	if hr.isAlias {
		owner = hr.owner
	}
	if ex, ok := s.regions[right.ID]; ok {
		if !ex.isAlias || ex.owner != owner {
			return fmt.Errorf("%w: %d", ErrRegionExists, right.ID)
		}
		// Idempotent re-ensure (a successor master replays the split it
		// found in flight): refresh both descriptors and leases.
		hr.info = left.Clone()
		if hr.lease.Holder != "" {
			hr.lease = region.Lease{Region: left.ID, Epoch: left.Epoch, Holder: s.cfg.Name}
		}
		ex.info = right.Clone()
		if ex.lease.Holder != "" {
			ex.lease = region.Lease{Region: right.ID, Epoch: right.Epoch, Holder: s.cfg.Name}
		}
		return nil
	}
	hr.info = left.Clone()
	if hr.lease.Holder != "" {
		hr.lease = region.Lease{Region: left.ID, Epoch: left.Epoch, Holder: s.cfg.Name}
	}
	s.regions[right.ID] = &hostedRegion{
		info:    right.Clone(),
		mode:    hr.mode,
		isAlias: true,
		owner:   owner,
		lease:   region.Lease{Region: right.ID, Epoch: right.Epoch, Holder: s.cfg.Name},
		stats:   newRegionStats(),
	}
	return nil
}

// MergeHosted collapses a hosted split pair back into one region after a
// map-level Merge: the right child's alias entry is removed and the
// surviving region takes the merged bounds and epoch.
func (s *Server) MergeHosted(merged region.Region, rightID region.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	left, ok := s.regions[merged.ID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownRegion, merged.ID)
	}
	right, ok := s.regions[rightID]
	if !ok || !right.isAlias {
		return fmt.Errorf("%w: %d is not a hosted alias", ErrUnknownRegion, rightID)
	}
	if right.frozen {
		right.frozen = false
		close(right.freezeCh)
		right.freezeCh = nil
	}
	delete(s.regions, rightID)
	left.info = merged.Clone()
	if left.lease.Holder != "" {
		left.lease = region.Lease{Region: merged.ID, Epoch: merged.Epoch, Holder: s.cfg.Name}
	}
	return nil
}

// AliasChildren lists the hosted alias entries resolving to owner's
// engine — the split children that must move (or merge back) before the
// owner itself can migrate.
func (s *Server) AliasChildren(owner region.ID) []region.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []region.ID
	for id, hr := range s.regions {
		if hr.isAlias && hr.owner == owner {
			out = append(out, id)
		}
	}
	return out
}

// RegionLoads snapshots the cumulative traffic counters of every region
// this server is serving (primaries and alias children; backups take no
// client ops). The master diffs successive snapshots to find hot
// regions.
func (s *Server) RegionLoads() map[region.ID]region.Load {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[region.ID]region.Load, len(s.regions))
	for id, hr := range s.regions {
		if hr.db == nil && !hr.isAlias {
			continue
		}
		out[id] = hr.stats.load()
	}
	return out
}

// SplitKey proposes a median split key for a hosted region by sampling
// keys from its serving engine within the region's bounds. The sample is
// decimated on the fly so memory stays bounded on arbitrarily large
// regions.
func (s *Server) SplitKey(id region.ID) ([]byte, error) {
	s.mu.Lock()
	hr, ok := s.regions[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrUnknownRegion, id)
	}
	eng := hr
	if hr.isAlias {
		eng = s.regions[hr.owner]
	}
	var db *lsm.DB
	if eng != nil {
		db = eng.db
	}
	start, end := hr.info.Start, hr.info.End
	s.mu.Unlock()
	if db == nil {
		return nil, fmt.Errorf("%w: %d", ErrNotPrimary, id)
	}

	const maxSample = 4096
	keys := make([][]byte, 0, maxSample)
	stride, seen := 1, 0
	err := db.ScanLimit(start, lsm.Limit{Pairs: math.MaxInt, Bytes: math.MaxInt, End: end}, func(p kv.Pair) bool {
		if end != nil && kv.Compare(p.Key, end) >= 0 {
			return false
		}
		if seen%stride == 0 {
			keys = append(keys, append([]byte(nil), p.Key...))
			if len(keys) == maxSample {
				// Keep every other sample and double the stride.
				half := keys[:0]
				for i := 0; i < maxSample; i += 2 {
					half = append(half, keys[i])
				}
				keys = half
				stride *= 2
			}
		}
		seen++
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(keys) < 2 {
		return nil, fmt.Errorf("server: region %d has too few keys to split", id)
	}
	// keys are ascending and distinct, and index len/2 >= 1, so the
	// median is strictly inside (Start, End) as Map.Split requires.
	return keys[len(keys)/2], nil
}
