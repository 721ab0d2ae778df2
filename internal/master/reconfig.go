// Reconfiguration: live migration of a whole region to another server,
// the one placement change the master makes besides failover (region key
// ranges are fixed at bootstrap). A migration runs as a durable
// prepare → transfer → switch sequence anchored on an intent znode, so a
// successor master can always tell how far a dead leader got and either
// finish the hand-off or roll it back — never leaving a region frozen
// forever and never producing two serving primaries.
package master

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/replica"
)

// ReconfigPath stores the durable intent of the reconfiguration in
// flight (empty when none).
const ReconfigPath = "/tebis/reconfig"

// The reconfiguration operation and its phases as recorded in the intent.
const (
	OpMigrate = "migrate"

	// PhasePrepare freezes the region (lease revoked, ops parked,
	// in-flight ops drained).
	PhasePrepare = "prepare"
	// PhaseTransfer seeds the destination by shipping the source's built
	// index segments and log tail over the backup ship path; a
	// destination that already is a backup needs nothing shipped.
	PhaseTransfer = "transfer"
	// PhaseSwitch flips roles and publishes the new map — the commit
	// point — then thaws the region under a fresh lease.
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

// Intent is the durable record of one in-flight migration. It is
// written to ReconfigPath before every phase, so the furthest phase a
// dead master could have reached is always known.
type Intent struct {
	Op    string `json:"op"`
	Phase string `json:"phase"`
	// Region is the region being migrated.
	Region region.ID `json:"region"`
	// From and To are the source and destination servers.
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
// its actions (see MigrateRegion): the record must precede the commit,
// and the interesting crash point is after it.
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

// MigrateRegion moves a region's serving role to another server inside a
// freeze window, so no acknowledged write is lost and no read sees the
// region mid-hand-off. A destination that is not yet a backup of the
// region is seeded over the replica ship path — built index segments
// plus the sealed log tail, no re-compaction; one that already is (the
// planned hand-over used for load balancing, §3.1) needs no transfer.
// The replica group is rewired behind the new primary and the old
// primary stays on as a backup. Returns the bytes shipped to seed the
// destination.
//
// The protocol: the intent is durably recorded before every phase, so a
// successor knows the furthest point a dead leader could have reached;
// the map publish is the commit point, and everything after it is
// completeIntent — the completion a successor's TakeOver runs — so what
// a live leader and a successor do to finish cannot drift. A failure
// before the publish rolls back through abortIntent. A ReconfigHook
// interruption leaves all state for the successor, and so does a failure
// after the publish: the migration is committed and only its completion
// is owed.
func (m *Master) MigrateRegion(id region.ID, to string) (int64, error) {
	if err := m.requireLeader(); err != nil {
		return 0, err
	}
	if err := m.lockReconfig(); err != nil {
		return 0, err
	}
	defer m.unlockReconfig()
	if m.mode == replica.NoReplication {
		return 0, errors.New("master: migration requires a replication mode (the destination is seeded over the backup ship path)")
	}
	m.mu.Lock()
	r, err := m.rmap.ByID(id)
	dstLive := m.live[to]
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if to == r.Primary {
		return 0, fmt.Errorf("master: region %d is already served by %s", id, to)
	}
	src, err := m.host(r.Primary)
	if err != nil {
		return 0, err
	}
	dst, err := m.host(to)
	if err != nil {
		return 0, err
	}
	if !dstLive {
		return 0, fmt.Errorf("%w: %s is down", ErrNoCapacity, to)
	}

	it := Intent{Op: OpMigrate, Region: id, From: r.Primary, To: to}
	shipped, err := m.migrate(&it, r, src, dst)
	if err != nil {
		if !errors.Is(err, ErrReconfigInterrupted) {
			m.abortIntent(it)
		}
		return shipped, err
	}
	if err := m.hookPoint(it.Op, PhaseSwitch); err != nil {
		return shipped, err
	}
	if err := m.completeIntent(it); err != nil {
		return shipped, err
	}
	m.mu.Lock()
	m.shipBytes[id] += shipped
	m.mu.Unlock()
	return shipped, nil
}

// migrate runs a migration's phases up to and including the commit
// point, the publish of the map that names the destination as primary.
func (m *Master) migrate(it *Intent, r region.Region, src, dst Host) (shipped int64, err error) {
	if err := m.beginPhase(it, PhasePrepare); err != nil {
		return 0, err
	}
	if err := src.Freeze(r.ID); err != nil {
		return 0, err
	}

	if err := m.beginPhase(it, PhaseTransfer); err != nil {
		return 0, err
	}
	p, ok := src.Primary(r.ID)
	if !ok {
		return 0, fmt.Errorf("master: %s does not host primary of region %d", it.From, r.ID)
	}
	// Quiesce the engine: drain compactions, seal and ship the log tail
	// so every replica's copy is complete.
	if err := p.DB().WaitIdle(); err != nil {
		return 0, err
	}
	if err := p.SealTail(); err != nil {
		return 0, err
	}
	if _, already := dst.Backup(r.ID); !already {
		nb, err := dst.OpenBackup(r, m.mode)
		if err != nil {
			return 0, err
		}
		replica.Attach(p, nb)
		if shipped, err = p.Sync(nb); err != nil {
			return shipped, err
		}
	}

	it.Phase = PhaseSwitch
	if err := m.saveIntent(*it); err != nil {
		return shipped, err
	}
	p.DetachAll()
	followers := m.liveBackups(r, it.To)
	if err := m.handOver(r.ID, it.To, followers, src); err != nil {
		return shipped, err
	}
	nr := r.Clone()
	nr.Primary = it.To
	nr.Epoch++
	nr.Backups = append(followers, it.From)
	m.mu.Lock()
	err = m.rmap.SetRegion(nr)
	m.mu.Unlock()
	if err != nil {
		return shipped, err
	}
	return shipped, m.publishMap()
}

// resumeReconfig finishes or rolls back the migration a dead leader left
// in flight. The published map is the commit point: if it already
// reflects the migration, only the post-commit thaw remains and is
// replayed; otherwise every pre-commit step is undone. Either way
// exactly one primary serves the region afterwards.
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
// recorded migration.
func (m *Master) intentCommitted(it Intent) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.rmap.ByID(it.Region)
	return err == nil && r.Primary == it.To
}

// completeIntent is the post-commit tail of a migration: thaw the
// destination under a fresh lease and the demoted source, count the
// migration, clear the intent. A live leader runs it right after the
// publish and a successor's TakeOver replays it for a dead one; every
// step is idempotent, so it is safe no matter how far the dead leader
// got past the publish.
func (m *Master) completeIntent(it Intent) error {
	m.mu.Lock()
	rg, err := m.rmap.ByID(it.Region)
	m.mu.Unlock()
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
	// The source stays on as a backup, without a lease.
	if src, err := m.host(it.From); err == nil && src.Frozen(it.Region) {
		if err := src.Unfreeze(rg, region.Lease{}); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	return m.clearIntent()
}

// abortIntent rolls an uncommitted migration back to the last published
// map: a half-seeded or orphaned copy on the destination is torn down,
// the source is thawed under a fresh lease, and the intent is cleared.
// Used both by a successor's resume and as the cleanup path of a failed
// migration.
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

	if r, err := pub.ByID(it.Region); err == nil {
		src, serr := m.host(it.From)
		if dst, err := m.host(it.To); err == nil {
			// A destination the published map lists as a backup was a
			// replica before the migration began (a planned hand-over): it
			// stays.
			if nb, ok := dst.Backup(it.Region); ok && !slices.Contains(r.Backups, it.To) {
				// Detach the half-seeded backup from the primary shipping to
				// it before tearing it down.
				if serr == nil {
					if p, ok := src.Primary(it.Region); ok {
						p.Detach(nb)
					}
				}
				_ = dst.DropRegion(it.Region)
			} else if _, ok := dst.Primary(it.Region); ok {
				// Promoted but never published: tear the orphan down; the
				// frozen source still has everything.
				_ = dst.DropRegion(it.Region)
			}
		}
		if serr == nil && r.Primary == it.From && src.Frozen(r.ID) {
			if err := src.Unfreeze(r, region.Lease{
				Region: r.ID, Epoch: r.Epoch, Holder: it.From,
			}); err != nil {
				return err
			}
		}
	}

	m.mu.Lock()
	m.reconfAborts++
	m.mu.Unlock()
	return m.clearIntent()
}
