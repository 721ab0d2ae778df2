// Reconfiguration state machine: online region split, merge, and
// index-shipped live migration, plus the load-driven rebalancer that
// composes them. Every operation runs as a durable
// prepare → transfer → switch sequence anchored on an intent znode, so a
// successor master can always tell how far a dead leader got and either
// finish the handoff or roll it back — never leaving a region frozen
// forever and never producing two serving primaries.
package master

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/replica"
)

// ReconfigPath stores the durable intent of the reconfiguration in
// flight (empty when none).
const ReconfigPath = "/tebis/reconfig"

// Reconfiguration operations and phases as recorded in the intent.
const (
	OpSplit   = "split"
	OpMerge   = "merge"
	OpMigrate = "migrate"

	// PhasePrepare freezes the affected regions (leases revoked, ops
	// parked, in-flight ops drained).
	PhasePrepare = "prepare"
	// PhaseTransfer moves state: a migration seeds the destination by
	// shipping the source's built index segments and log tail over the
	// backup ship path; splits and merges move nothing.
	PhaseTransfer = "transfer"
	// PhaseSwitch flips roles and publishes the new map — the commit
	// point — then thaws the frozen regions under fresh leases.
	PhaseSwitch = "switch"
)

// Reconfiguration errors.
var (
	// ErrReconfigBusy rejects a reconfiguration while another is in
	// flight; there is a single intent slot.
	ErrReconfigBusy = errors.New("master: reconfiguration already in flight")
	// ErrReconfigInterrupted wraps a ReconfigHook abort: the master
	// "died" mid-operation and intentionally left its state for a
	// successor to resume.
	ErrReconfigInterrupted = errors.New("master: reconfiguration interrupted")
)

// Intent is the durable record of one in-flight reconfiguration. It is
// written to ReconfigPath before every phase, so the furthest phase a
// dead master could have reached is always known.
type Intent struct {
	Op    string `json:"op"`
	Phase string `json:"phase"`
	// Region is the region being split, merged-into, or migrated.
	Region region.ID `json:"region"`
	// NewID is the split's right child, or the merge's absorbed right
	// sibling.
	NewID    region.ID `json:"new_id,omitempty"`
	SplitKey []byte    `json:"split_key,omitempty"`
	// From and To are a migration's source and destination servers.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// saveIntent durably records the intent.
func (m *Master) saveIntent(it Intent) error {
	data, err := json.Marshal(it)
	if err != nil {
		return err
	}
	if err := m.sess.CreateAll(ReconfigPath); err != nil {
		return err
	}
	return m.sess.Set(ReconfigPath, data)
}

// clearIntent erases the intent record (the operation finished or was
// rolled back).
func (m *Master) clearIntent() error {
	if err := m.sess.CreateAll(ReconfigPath); err != nil {
		return err
	}
	return m.sess.Set(ReconfigPath, nil)
}

// loadIntent reads the recorded intent, reporting whether one exists.
func (m *Master) loadIntent() (Intent, bool, error) {
	data, err := m.sess.Get(ReconfigPath)
	if err != nil || len(data) == 0 {
		return Intent{}, false, nil
	}
	var it Intent
	if err := json.Unmarshal(data, &it); err != nil {
		return Intent{}, false, fmt.Errorf("master: corrupt reconfig intent: %w", err)
	}
	return it, true, nil
}

// hookPoint gives ReconfigHook a chance to abandon the operation, as a
// crash at this exact point would.
func (m *Master) hookPoint(op, phase string) error {
	if m.ReconfigHook == nil {
		return nil
	}
	if err := m.ReconfigHook(op, phase); err != nil {
		return fmt.Errorf("%w: %s/%s: %v", ErrReconfigInterrupted, op, phase, err)
	}
	return nil
}

// beginPhase durably advances the intent to the given phase, then runs
// the crash hook. The switch phase instead records first and hooks after
// its actions (see reconfigure): the record must precede the commit, and
// the interesting crash point is after it.
func (m *Master) beginPhase(it *Intent, phase string) error {
	it.Phase = phase
	if err := m.saveIntent(*it); err != nil {
		return err
	}
	m.events.Record(obs.Event{
		Type: obs.EvReconfigPhase, Node: m.name,
		Msg: "reconfiguration advanced to a new durable phase",
		Fields: map[string]string{
			"op":     it.Op,
			"phase":  phase,
			"region": fmt.Sprint(it.Region),
		},
	})
	return m.hookPoint(it.Op, phase)
}

// lockReconfig claims the single reconfiguration slot.
func (m *Master) lockReconfig() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reconfiguring {
		return ErrReconfigBusy
	}
	m.reconfiguring = true
	return nil
}

func (m *Master) unlockReconfig() {
	m.mu.Lock()
	m.reconfiguring = false
	m.mu.Unlock()
}

func (m *Master) requireLeader() error {
	lead, _, err := m.elec.IsLeader()
	if err != nil {
		return err
	}
	if !lead {
		return ErrNotLeader
	}
	return nil
}

// reconfigSteps are the parts of a reconfiguration that differ between
// operations; reconfigure supplies everything around them.
type reconfigSteps struct {
	// prepare freezes the affected regions.
	prepare func() error
	// transfer seeds a migration's destination; nil for splits and
	// merges, which move nothing.
	transfer func() error
	// commit flips roles on the hosts and applies the change to m.rmap;
	// the driver publishes the map right after.
	commit func() error
}

// reconfigure drives one reconfiguration. plan runs with the
// reconfiguration slot held: it validates the request against the current
// map, fills in the intent, and returns the operation's own steps. The
// driver is what enforces the protocol: the intent is durably recorded
// before every phase, so a successor knows the furthest point a dead
// leader could have reached, and everything after the publish is
// completeIntent — the completion a successor's TakeOver runs — so what
// a live leader and a successor do to finish cannot drift. A failure
// before the publish rolls back through abortIntent. A ReconfigHook
// interruption leaves all state for the successor, and so does a failure
// after the publish: the operation is committed and only its completion
// is owed.
func (m *Master) reconfigure(plan func(it *Intent) (reconfigSteps, error)) error {
	if err := m.requireLeader(); err != nil {
		return err
	}
	if err := m.lockReconfig(); err != nil {
		return err
	}
	defer m.unlockReconfig()

	var it Intent
	st, err := plan(&it)
	if err != nil {
		return err
	}
	precommit := func() error {
		if err := m.beginPhase(&it, PhasePrepare); err != nil {
			return err
		}
		if err := st.prepare(); err != nil {
			return err
		}
		if err := m.beginPhase(&it, PhaseTransfer); err != nil {
			return err
		}
		if st.transfer != nil {
			if err := st.transfer(); err != nil {
				return err
			}
		}
		it.Phase = PhaseSwitch
		if err := m.saveIntent(it); err != nil {
			return err
		}
		if err := st.commit(); err != nil {
			return err
		}
		return m.publishMap()
	}
	if err := precommit(); err != nil {
		if !errors.Is(err, ErrReconfigInterrupted) {
			m.abortIntent(it)
		}
		return err
	}
	if err := m.hookPoint(it.Op, PhaseSwitch); err != nil {
		return err
	}
	return m.completeIntent(it)
}

// SplitRegion splits a region online at splitKey (nil asks the serving
// host for the sampled median). The split is logical: the right child
// gets the new smallest free ID and serves from the parent's engine on
// the same servers until a migration physically separates them. Client
// requests routed with the pre-split map bounce as wrong-epoch through a
// short freeze window; no acknowledged write is lost. Returns the right
// child's ID.
func (m *Master) SplitRegion(id region.ID, splitKey []byte) (region.ID, error) {
	var newID region.ID
	err := m.reconfigure(func(it *Intent) (reconfigSteps, error) {
		m.mu.Lock()
		r, err := m.rmap.ByID(id)
		newID = m.rmap.NextID()
		m.mu.Unlock()
		if err != nil {
			return reconfigSteps{}, err
		}
		host, err := m.host(r.Primary)
		if err != nil {
			return reconfigSteps{}, err
		}
		if splitKey == nil {
			if splitKey, err = host.SplitKey(id); err != nil {
				return reconfigSteps{}, err
			}
		}
		*it = Intent{Op: OpSplit, Region: id, NewID: newID, SplitKey: splitKey, From: r.Primary}
		return reconfigSteps{
			prepare: func() error { return host.Freeze(id) },
			// A split ships nothing: its commit installs the shared-engine
			// alias on the serving host.
			commit: func() error {
				m.mu.Lock()
				err := m.rmap.Split(id, splitKey, newID)
				left, _ := m.rmap.ByID(id)
				right, _ := m.rmap.ByID(newID)
				m.mu.Unlock()
				if err != nil {
					return err
				}
				return host.SplitHosted(left, right)
			},
		}, nil
	})
	if err != nil {
		return 0, err
	}
	return newID, nil
}

// MergeRegion folds a split's right child back into its left sibling
// while both still share an engine. The merged region's epoch advances
// so stale-map requests bounce into a refresh.
func (m *Master) MergeRegion(leftID, rightID region.ID) error {
	return m.reconfigure(func(it *Intent) (reconfigSteps, error) {
		m.mu.Lock()
		left, err := m.rmap.ByID(leftID)
		m.mu.Unlock()
		if err != nil {
			return reconfigSteps{}, err
		}
		host, err := m.host(left.Primary)
		if err != nil {
			return reconfigSteps{}, err
		}
		*it = Intent{Op: OpMerge, Region: leftID, NewID: rightID, From: left.Primary}
		return reconfigSteps{
			prepare: func() error {
				if err := host.Freeze(leftID); err != nil {
					return err
				}
				return host.Freeze(rightID)
			},
			commit: func() error {
				m.mu.Lock()
				err := m.rmap.Merge(leftID, rightID)
				merged, _ := m.rmap.ByID(leftID)
				m.mu.Unlock()
				if err != nil {
					return err
				}
				// MergeHosted also thaws the right child's parked ops; the
				// entry is gone, so they bounce as unknown-region into a map
				// refresh.
				return host.MergeHosted(merged, rightID)
			},
		}, nil
	})
}

// MigrateRegion moves a region's serving role to another server inside a
// freeze window, so no acknowledged write is lost and no read sees the
// region mid-handoff. A destination that is not yet a backup of the
// region is seeded over the replica ship path — built index segments
// plus the sealed log tail, no re-compaction; one that already is (the
// planned hand-over used for load balancing, §3.1) needs no transfer.
// A whole region moves with its replica group rewired behind it and the
// old primary staying on as a backup. A split child migrating away gets
// its own engine for the first time (this is what physically separates a
// split): it leaves the parent link behind and its replica set is
// re-seeded from the new primary. Returns the bytes shipped to seed the
// destination.
func (m *Master) MigrateRegion(id region.ID, to string) (int64, error) {
	var shipped int64
	err := m.reconfigure(func(it *Intent) (reconfigSteps, error) {
		if m.mode == replica.NoReplication {
			return reconfigSteps{}, errors.New("master: migration requires a replication mode (the destination is seeded over the backup ship path)")
		}
		m.mu.Lock()
		r, err := m.rmap.ByID(id)
		var blocked bool
		for _, x := range m.rmap.Regions {
			if x.HasParent && x.Parent == id {
				blocked = true
			}
		}
		dstLive := m.live[to]
		snap := m.rmap.Clone()
		m.mu.Unlock()
		if err != nil {
			return reconfigSteps{}, err
		}
		if blocked {
			return reconfigSteps{}, fmt.Errorf("master: region %d has split children sharing its engine; migrate or merge them first", id)
		}
		if to == r.Primary {
			return reconfigSteps{}, fmt.Errorf("master: region %d is already served by %s", id, to)
		}
		src, err := m.host(r.Primary)
		if err != nil {
			return reconfigSteps{}, err
		}
		dst, err := m.host(to)
		if err != nil {
			return reconfigSteps{}, err
		}
		if !dstLive {
			return reconfigSteps{}, fmt.Errorf("%w: %s is down", ErrNoCapacity, to)
		}
		// The engine owner: the region itself unless it is a split child.
		root, err := rootOwner(snap, r)
		if err != nil {
			return reconfigSteps{}, err
		}
		kids := src.AliasChildren(root.ID)
		if !r.HasParent && len(kids) > 0 {
			return reconfigSteps{}, fmt.Errorf("master: region %d still owns the engine of split children %v", id, kids)
		}

		*it = Intent{Op: OpMigrate, Region: id, From: r.Primary, To: to}
		var p *replica.Primary
		return reconfigSteps{
			// Everything served from the engine freezes: siblings share one log.
			prepare: func() error {
				for _, sid := range append([]region.ID{root.ID}, kids...) {
					if err := src.Freeze(sid); err != nil {
						return err
					}
				}
				return nil
			},
			transfer: func() error {
				var ok bool
				if p, ok = src.Primary(root.ID); !ok {
					return fmt.Errorf("master: %s does not host primary of region %d", it.From, root.ID)
				}
				// Quiesce the engine: drain compactions, seal and ship the log
				// tail so every replica's copy is complete.
				if err := p.DB().WaitIdle(); err != nil {
					return err
				}
				if err := p.SealTail(); err != nil {
					return err
				}
				if _, already := dst.Backup(id); already {
					return nil
				}
				nb, err := dst.OpenBackup(r, m.mode)
				if err != nil {
					return err
				}
				replica.Attach(p, nb)
				shipped, err = p.Sync(nb)
				return err
			},
			commit: func() error {
				nr := r.Clone()
				nr.Primary = to
				nr.Epoch++
				var err error
				if r.HasParent {
					// Only the seeded copy leaves the owner's replica group,
					// which keeps serving the rest of the engine.
					if nb, ok := dst.Backup(id); ok {
						p.Detach(nb)
					}
					err = m.handOver(id, to, nil, nil)
					// Parent-keyed replicas can't serve the child; completion
					// re-seeds its replica set.
					nr.Backups, nr.HasParent, nr.Parent = nil, false, 0
				} else {
					p.DetachAll()
					followers := m.liveBackups(r, to)
					err = m.handOver(id, to, followers, src)
					nr.Backups = append(followers, it.From)
				}
				if err != nil {
					return err
				}
				m.mu.Lock()
				defer m.mu.Unlock()
				return m.rmap.SetRegion(nr)
			},
		}, nil
	})
	if err != nil {
		return shipped, err
	}
	m.mu.Lock()
	m.shipBytes[id] += shipped
	m.mu.Unlock()
	return shipped, nil
}

// resumeReconfig finishes or rolls back the reconfiguration a dead
// leader left in flight. The published map is the commit point: if it
// already reflects the operation, only post-commit cleanup (thaw, drop,
// re-seed) remains and is replayed; otherwise every pre-commit step is
// undone. Either way exactly one primary serves the region afterwards.
func (m *Master) resumeReconfig() error {
	it, ok, err := m.loadIntent()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if m.intentCommitted(it) {
		return m.completeIntent(it)
	}
	return m.abortIntent(it)
}

// intentCommitted reports whether the published map already reflects the
// recorded operation.
func (m *Master) intentCommitted(it Intent) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch it.Op {
	case OpSplit:
		_, err := m.rmap.ByID(it.NewID)
		return err == nil
	case OpMerge:
		_, err := m.rmap.ByID(it.NewID)
		return err != nil
	case OpMigrate:
		r, err := m.rmap.ByID(it.Region)
		return err == nil && r.Primary == it.To
	}
	return false
}

// completeIntent is the post-commit tail of every reconfiguration: thaw
// under fresh leases, drop a migrated child's stale alias, re-seed its
// replica set, count the operation, clear the intent. A live leader runs
// it right after the publish and a successor's TakeOver replays it for a
// dead one; every step is idempotent, so it is safe no matter how far
// the dead leader got past the publish.
func (m *Master) completeIntent(it Intent) error {
	m.mu.Lock()
	snap := m.rmap.Clone()
	m.mu.Unlock()
	switch it.Op {
	case OpSplit:
		left, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		right, err := snap.ByID(it.NewID)
		if err != nil {
			return err
		}
		h, err := m.host(left.Primary)
		if err != nil {
			return err
		}
		// Ensure the alias exists (idempotent), then thaw the left child.
		if err := h.SplitHosted(left, right); err != nil {
			return err
		}
		if err := h.Unfreeze(left, region.Lease{
			Region: left.ID, Epoch: left.Epoch, Holder: left.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.splits++
		m.mu.Unlock()

	case OpMerge:
		merged, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		h, err := m.host(merged.Primary)
		if err != nil {
			return err
		}
		root, err := rootOwner(snap, merged)
		if err != nil {
			return err
		}
		for _, kid := range h.AliasChildren(root.ID) {
			if kid == it.NewID {
				if err := h.MergeHosted(merged, it.NewID); err != nil {
					return err
				}
			}
		}
		if err := h.Unfreeze(merged, region.Lease{
			Region: merged.ID, Epoch: merged.Epoch, Holder: merged.Primary,
		}); err != nil {
			return err
		}
		m.mu.Lock()
		m.merges++
		m.mu.Unlock()

	case OpMigrate:
		rg, err := snap.ByID(it.Region)
		if err != nil {
			return err
		}
		dst, err := m.host(it.To)
		if err != nil {
			return err
		}
		if err := dst.Unfreeze(rg, region.Lease{
			Region: rg.ID, Epoch: rg.Epoch, Holder: it.To,
		}); err != nil {
			return err
		}
		if src, err := m.host(it.From); err == nil {
			if _, isBackup := src.Backup(it.Region); isBackup {
				// Whole-region flavor: the source stays as a backup.
				if src.Frozen(it.Region) {
					if err := src.Unfreeze(rg, region.Lease{}); err != nil {
						return err
					}
				}
			} else {
				// Child flavor: drop the stale alias if it survived.
				_ = src.DropRegion(it.Region)
			}
			// Thaw whatever else froze for the handoff (the engine owner
			// and its other children, for a child migration).
			for _, pr := range snap.Regions {
				if pr.Primary == it.From && src.Frozen(pr.ID) {
					if err := src.Unfreeze(pr, region.Lease{
						Region: pr.ID, Epoch: pr.Epoch, Holder: it.From,
					}); err != nil {
						return err
					}
				}
			}
		}
		if len(rg.Backups) == 0 {
			if err := m.refillBackup(rg, ""); err != nil {
				return err
			}
			if err := m.publishMap(); err != nil {
				return err
			}
		}
		m.mu.Lock()
		m.migrations++
		m.mu.Unlock()
	}
	return m.clearIntent()
}

// abortIntent rolls an uncommitted reconfiguration back to the last
// published map: host-side scaffolding (aliases, half-seeded backups) is
// torn down, every region frozen for the operation is thawed under a
// fresh lease, and the intent is cleared. Used both by a successor's
// resume and as the cleanup path of a failed operation.
func (m *Master) abortIntent(it Intent) error {
	data, err := m.sess.Get(RegionMapPath)
	if err != nil {
		return err
	}
	pub, err := region.Decode(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = pub.Clone()
	m.mu.Unlock()

	thaw := func(h Host, name string) error {
		for _, pr := range pub.Regions {
			if pr.Primary == name && h.Frozen(pr.ID) {
				if err := h.Unfreeze(pr, region.Lease{
					Region: pr.ID, Epoch: pr.Epoch, Holder: name,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	switch it.Op {
	case OpSplit:
		r, err := pub.ByID(it.Region)
		if err == nil {
			if h, err := m.host(r.Primary); err == nil {
				_ = h.DropRegion(it.NewID) // alias, if the split got that far
				// Restore the full pre-split descriptor and thaw.
				if err := h.Unfreeze(r, region.Lease{
					Region: r.ID, Epoch: r.Epoch, Holder: r.Primary,
				}); err != nil {
					return err
				}
			}
		}

	case OpMerge:
		left, lerr := pub.ByID(it.Region)
		right, rerr := pub.ByID(it.NewID)
		if lerr == nil && rerr == nil {
			if h, err := m.host(left.Primary); err == nil {
				// Re-ensure the right child's alias (MergeHosted may have
				// removed it before the map was republished), then thaw both.
				if err := h.SplitHosted(left, right); err != nil {
					return err
				}
				if err := thaw(h, left.Primary); err != nil {
					return err
				}
			}
		}

	case OpMigrate:
		r, err := pub.ByID(it.Region)
		if err != nil {
			break
		}
		if dst, err := m.host(it.To); err == nil {
			// A destination the published map lists as a backup was a replica
			// before the migration began (a planned hand-over): it stays.
			// Split children only mirror their owner's list, so a child's
			// copy on the destination is always the migration's own seed.
			nb, ok := dst.Backup(it.Region)
			if ok && (r.HasParent || !slices.Contains(r.Backups, it.To)) {
				// Detach the half-seeded backup from whichever primary was
				// shipping to it before tearing it down.
				root, rerr := rootOwner(pub, r)
				if rerr == nil {
					if src, err := m.host(it.From); err == nil {
						if p, ok := src.Primary(root.ID); ok {
							p.Detach(nb)
						}
					}
				}
				_ = dst.DropRegion(it.Region)
			} else if _, ok := dst.Primary(it.Region); ok {
				// Promoted but never published: tear the orphan down; the
				// frozen source still has everything.
				_ = dst.DropRegion(it.Region)
			}
		}
		if src, err := m.host(it.From); err == nil {
			if err := thaw(src, it.From); err != nil {
				return err
			}
		}
	}

	m.mu.Lock()
	m.reconfAborts++
	m.mu.Unlock()
	return m.clearIntent()
}

// RebalanceReport describes what one rebalancing round did.
type RebalanceReport struct {
	// Action is "split+migrate", "migrate", or "none".
	Action string
	// Region is the hot region acted on; NewRegion the split child that
	// moved (split+migrate only).
	Region    region.ID
	NewRegion region.ID
	From, To  string
	// ShipBytes is the index+log volume shipped to seed the destination.
	ShipBytes int64
}

// Rebalance runs one load-driven rebalancing round: it diffs each
// serving region's cumulative op counters against the previous round to
// find the hottest region, picks the coldest live server as the target,
// splits the hot region at its sampled median, and migrates the new
// child there over the ship path. Regions too small to split move whole.
// A round with no traffic since the last one is a no-op.
func (m *Master) Rebalance() (RebalanceReport, error) {
	if err := m.requireLeader(); err != nil {
		return RebalanceReport{}, err
	}
	m.mu.Lock()
	type liveHost struct {
		name string
		h    Host
	}
	var hs []liveHost
	for name, h := range m.hosts {
		if m.live[name] {
			hs = append(hs, liveHost{name, h})
		}
	}
	rmap := m.rmap.Clone()
	last := m.lastLoads
	m.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })

	loads := map[region.ID]uint64{}
	for _, lh := range hs {
		for id, l := range lh.h.RegionLoads() {
			loads[id] = l.Ops()
		}
	}
	deltas := map[region.ID]uint64{}
	for id, ops := range loads {
		d := ops
		if prev, ok := last[id]; ok && prev <= ops {
			d = ops - prev
		}
		deltas[id] = d
	}
	m.mu.Lock()
	m.lastLoads = loads
	m.mu.Unlock()

	var hot region.ID
	var hotDelta uint64
	ids := make([]region.ID, 0, len(deltas))
	for id := range deltas {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if deltas[id] > hotDelta {
			hot, hotDelta = id, deltas[id]
		}
	}
	if hotDelta == 0 {
		return RebalanceReport{Action: "none"}, nil
	}

	hotR, err := rmap.ByID(hot)
	if err != nil {
		return RebalanceReport{}, err
	}
	// Target: the live server carrying the least traffic this round.
	perServer := map[string]uint64{}
	for _, lh := range hs {
		perServer[lh.name] = 0
	}
	for _, r := range rmap.Regions {
		if _, ok := perServer[r.Primary]; ok {
			perServer[r.Primary] += deltas[r.ID]
		}
	}
	target := ""
	for _, lh := range hs {
		if lh.name == hotR.Primary {
			continue
		}
		if target == "" || perServer[lh.name] < perServer[target] {
			target = lh.name
		}
	}
	if target == "" {
		return RebalanceReport{Action: "none"}, nil
	}

	rep := RebalanceReport{Region: hot, From: hotR.Primary, To: target}
	newID, err := m.SplitRegion(hot, nil)
	if err != nil {
		// Too small to split (or already a sliver): move the whole region.
		shipped, merr := m.MigrateRegion(hot, target)
		if merr != nil {
			return rep, fmt.Errorf("master: rebalance: split failed (%v); whole-region migrate failed: %w", err, merr)
		}
		rep.Action, rep.ShipBytes = "migrate", shipped
		return rep, nil
	}
	rep.NewRegion = newID
	shipped, err := m.MigrateRegion(newID, target)
	if err != nil {
		return rep, err
	}
	rep.Action, rep.ShipBytes = "split+migrate", shipped
	return rep, nil
}

// ShipBytes reports the cumulative bytes shipped to seed migration
// destinations, per migrated region.
func (m *Master) ShipBytes() map[region.ID]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[region.ID]int64, len(m.shipBytes))
	for id, n := range m.shipBytes {
		out[id] = n
	}
	return out
}
