// Package master implements the Tebis master: it bootstraps the region
// map, assigns primary/backup roles to region servers, watches server
// liveness through the coordination service's ephemeral nodes, and
// orchestrates recovery — backup replacement, primary promotion, and its
// own re-election (§3.1, §3.5).
package master

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"tebis/internal/obs"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/zklite"
)

// Zookeeper paths used by the cluster.
const (
	// ServersPath holds one ephemeral child per live region server.
	ServersPath = "/tebis/servers"
	// RegionMapPath stores the encoded region map.
	RegionMapPath = "/tebis/regionmap"
	// ElectionPath hosts the master election.
	ElectionPath = "/tebis/master"
)

// Host is the command surface of a region server the master drives
// (satisfied by *server.Server).
type Host interface {
	Name() string
	OpenPrimary(r region.Region, mode replica.Mode) (*replica.Primary, error)
	OpenBackup(r region.Region, mode replica.Mode) (*replica.Backup, error)
	PromoteToPrimary(id region.ID) (*replica.Primary, error)
	Backup(id region.ID) (*replica.Backup, bool)
	Primary(id region.ID) (*replica.Primary, bool)
	DropRegion(id region.ID) error
}

// Errors reported by the master.
var (
	ErrNotLeader  = errors.New("master: not the elected leader")
	ErrNoHost     = errors.New("master: unknown host")
	ErrNoCapacity = errors.New("master: no live server can take the region")
)

// Master orchestrates one Tebis cluster.
type Master struct {
	name   string
	sess   *zklite.Session
	elec   *zklite.Election
	mode   replica.Mode
	events *obs.EventLog

	mu       sync.Mutex
	hosts    map[string]Host
	live     map[string]bool
	rmap     *region.Map
	replicas int

	stop chan struct{}
	done chan struct{}
}

// Config configures a master candidate.
type Config struct {
	// Name identifies this candidate.
	Name string
	// Session is the candidate's coordination-service session.
	Session *zklite.Session
	// Mode is the cluster-wide replication mode.
	Mode replica.Mode
	// Events, when non-nil, journals the master's control-plane
	// transitions (failovers, backup replacement). Typically the
	// cluster-shared journal.
	Events *obs.EventLog
}

// New enrolls a master candidate in the election. Call Bootstrap (on
// the initial leader) or TakeOver (on a successor) once IsLeader.
func New(cfg Config) (*Master, error) {
	elec, err := zklite.NewElection(cfg.Session, ElectionPath, cfg.Name)
	if err != nil {
		return nil, err
	}
	m := &Master{
		name:   cfg.Name,
		sess:   cfg.Session,
		elec:   elec,
		mode:   cfg.Mode,
		events: cfg.Events,
		hosts:  map[string]Host{},
		live:   map[string]bool{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	return m, nil
}

// Name returns the candidate's name.
func (m *Master) Name() string { return m.name }

// IsLeader reports whether this candidate currently leads; when not, the
// returned channel fires when leadership may have changed.
func (m *Master) IsLeader() (bool, <-chan zklite.Event, error) {
	return m.elec.IsLeader()
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

// RegisterHost makes a region server drivable by this master. The
// caller also creates the server's ephemeral liveness node.
func (m *Master) RegisterHost(h Host) {
	m.mu.Lock()
	m.hosts[h.Name()] = h
	m.live[h.Name()] = true
	m.mu.Unlock()
}

// host resolves a registered region server by name.
func (m *Master) host(name string) (Host, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.hosts[name]; ok {
		return h, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoHost, name)
}

// Map returns the master's current region map.
func (m *Master) Map() *region.Map {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rmap.Clone()
}

// publishMap stores the region map in the coordination service so
// clients and a successor master can read it.
func (m *Master) publishMap() error {
	data := m.rmap.Encode()
	if err := m.sess.CreateAll(RegionMapPath); err != nil {
		return err
	}
	return m.sess.Set(RegionMapPath, data)
}

// Bootstrap opens every region of rmap on its assigned servers, attaches
// backups to primaries, and publishes the map. Leader only.
func (m *Master) Bootstrap(rmap *region.Map) error {
	if err := m.requireLeader(); err != nil {
		return err
	}
	if err := rmap.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = rmap.Clone()
	m.replicas = maxBackups(rmap)
	m.mu.Unlock()

	for _, r := range rmap.Regions {
		if err := m.openRegion(r); err != nil {
			return err
		}
	}
	return m.publishMap()
}

// openRegion issues the open-region commands for one region: primary
// first, then each backup, then attach.
func (m *Master) openRegion(r region.Region) error {
	ph, err := m.host(r.Primary)
	if err != nil {
		return err
	}
	mode := m.mode
	if len(r.Backups) == 0 {
		mode = replica.NoReplication
	}
	p, err := ph.OpenPrimary(r, mode)
	if err != nil {
		return err
	}
	for _, bname := range r.Backups {
		bh, err := m.host(bname)
		if err != nil {
			return err
		}
		b, err := bh.OpenBackup(r, mode)
		if err != nil {
			return err
		}
		if err := replica.Attach(p, b); err != nil {
			return err
		}
	}
	return nil
}

// TakeOver loads the published region map: a successor master resumes
// from coordination-service state after winning the election.
func (m *Master) TakeOver() error {
	if err := m.requireLeader(); err != nil {
		return err
	}
	data, err := m.sess.Get(RegionMapPath)
	if err != nil {
		return err
	}
	rmap, err := region.Decode(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.rmap = rmap
	m.replicas = maxBackups(rmap)
	m.mu.Unlock()
	return nil
}

// maxBackups infers the cluster replication factor from a region map.
func maxBackups(rmap *region.Map) int {
	want := 0
	for _, r := range rmap.Regions {
		if len(r.Backups) > want {
			want = len(r.Backups)
		}
	}
	return want
}

// Run watches server liveness and handles failures until Stop. Leader
// only; it returns when the stop channel closes or the session dies.
func (m *Master) Run() error {
	defer close(m.done)
	for {
		kids, watch, err := m.sess.Children(ServersPath, true)
		if err != nil {
			return err
		}
		if err := m.reconcile(kids); err != nil {
			return err
		}
		select {
		case <-m.stop:
			return nil
		case <-watch:
		}
	}
}

// Stop terminates Run.
func (m *Master) Stop() {
	close(m.stop)
	<-m.done
}

// reconcile compares the live server set against the expectation and
// handles every disappeared server.
func (m *Master) reconcile(liveNow []string) error {
	nowSet := map[string]bool{}
	for _, s := range liveNow {
		nowSet[s] = true
	}
	m.mu.Lock()
	var failed []string
	for s, wasLive := range m.live {
		if wasLive && !nowSet[s] {
			failed = append(failed, s)
		}
	}
	sort.Strings(failed)
	for _, s := range failed {
		m.live[s] = false
	}
	m.mu.Unlock()
	for _, s := range failed {
		if err := m.HandleServerFailure(s); err != nil {
			return err
		}
	}
	return nil
}

// HandleServerFailure recovers every region the failed server
// participated in: primary regions are failed over to a backup, backup
// slots are refilled from live servers with a full state transfer
// (§3.5). A single node failure affects many regions; each is handled
// in turn.
func (m *Master) HandleServerFailure(name string) error {
	m.mu.Lock()
	m.live[name] = false
	rmap := m.rmap.Clone()
	m.mu.Unlock()

	for _, r := range rmap.Regions {
		if r.Primary == name {
			if err := m.failPrimary(r); err != nil {
				return err
			}
			continue
		}
		if slices.Contains(r.Backups, name) {
			if err := m.failBackup(r, name); err != nil {
				return err
			}
		}
	}
	return m.publishMap()
}

// liveBackups lists r's backups on live servers, skipping except.
func (m *Master) liveBackups(r region.Region, except string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, b := range r.Backups {
		if b != except && m.live[b] {
			out = append(out, b)
		}
	}
	return out
}

// handOver is the promote-and-rewire sequence behind every change of a
// region's primary, failover (§3.5): the backup of region id on server
// to becomes the primary, and the followers re-key their log maps
// through its pre-promotion log map and attach to it.
func (m *Master) handOver(id region.ID, to string, followers []string) error {
	dst, err := m.host(to)
	if err != nil {
		return err
	}
	nb, ok := dst.Backup(id)
	if !ok {
		return fmt.Errorf("master: %s does not host backup of region %d", to, id)
	}
	// Snapshot the new primary's log map before promotion: the other
	// replicas retarget through it (§3.2).
	oldToNew := nb.LogMap().Snapshot()
	p, err := dst.PromoteToPrimary(id)
	if err != nil {
		return err
	}
	for _, name := range followers {
		bh, err := m.host(name)
		if err != nil {
			return err
		}
		ob, ok := bh.Backup(id)
		if !ok {
			return fmt.Errorf("master: %s lost backup of region %d", name, id)
		}
		if err := ob.LogMap().Retarget(oldToNew); err != nil {
			return err
		}
		if err := replica.Attach(p, ob); err != nil {
			return err
		}
	}
	return nil
}

// failPrimary hands r over to its first live backup and refills the
// replica slot the failed primary vacated.
func (m *Master) failPrimary(r region.Region) error {
	live := m.liveBackups(r, "")
	if len(live) == 0 {
		return fmt.Errorf("%w: region %d lost its primary and has no live backup", ErrNoCapacity, r.ID)
	}
	promoteTo := live[0]
	if err := m.handOver(r.ID, promoteTo, live[1:]); err != nil {
		return err
	}

	// Update the map: new primary, old primary no longer a backup.
	m.mu.Lock()
	err := m.rmap.SetPrimary(r.ID, promoteTo)
	updated, _ := m.rmap.ByID(r.ID)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.events.Record(obs.Event{
		Type: obs.EvPrimaryFailed, Node: m.name, Level: obs.LevelWarn,
		Msg: "primary failed, backup promoted",
		Fields: map[string]string{
			"region":   fmt.Sprint(r.ID),
			"failed":   r.Primary,
			"promoted": promoteTo,
		},
	})

	// The failed server also vacated a replica slot: refill it.
	return m.refillBackup(updated, r.Primary)
}

// failBackup replaces a failed backup of r with a live server not
// already in the region and transfers the region data to it.
func (m *Master) failBackup(r region.Region, failed string) error {
	m.mu.Lock()
	if err := m.rmap.RemoveBackup(r.ID, failed); err != nil {
		m.mu.Unlock()
		return err
	}
	updated, _ := m.rmap.ByID(r.ID)
	m.mu.Unlock()
	return m.refillBackup(updated, failed)
}

// ReplaceBackup handles a backup the region's primary evicted for
// unresponsiveness (Primary.Degraded/Evictions): unlike a crash, the
// evicted server may still be live with its coordination-service node
// intact, so liveness watching never fires. The master drops the stale
// region state on the evicted host, removes it from the region, and
// refills the slot from a server outside the region — driving Sync to
// restore the replication factor (§3.5).
func (m *Master) ReplaceBackup(id region.ID, failed string) error {
	m.mu.Lock()
	r, err := m.rmap.ByID(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	fh := m.hosts[failed]
	m.mu.Unlock()
	if !slices.Contains(r.Backups, failed) {
		return fmt.Errorf("master: %s is not a backup of region %d", failed, id)
	}
	// A live evicted host still holds the region slot; drop it so the
	// region can be reassigned (possibly back to this host later).
	if fh != nil {
		if _, ok := fh.Backup(id); ok {
			if err := fh.DropRegion(id); err != nil {
				return err
			}
		}
	}
	if err := m.failBackup(r, failed); err != nil {
		return err
	}
	return m.publishMap()
}

// refillBackup tops the region's replica set back up to the cluster's
// replication factor using live servers outside the region, never
// picking avoid (the server just declared failed — it may still look
// live when the primary evicted it for unresponsiveness).
func (m *Master) refillBackup(r region.Region, avoid string) error {
	if m.mode == replica.NoReplication {
		return nil
	}
	m.mu.Lock()
	want := m.replicas
	in := map[string]bool{r.Primary: true}
	for _, b := range r.Backups {
		in[b] = true
	}
	var candidates []string
	for name, alive := range m.live {
		if alive && !in[name] && name != avoid {
			candidates = append(candidates, name)
		}
	}
	sort.Strings(candidates)
	ph := m.hosts[r.Primary]
	m.mu.Unlock()

	for len(r.Backups) < want && len(candidates) > 0 {
		cand := candidates[0]
		candidates = candidates[1:]
		m.mu.Lock()
		bh := m.hosts[cand]
		m.mu.Unlock()
		b, err := bh.OpenBackup(r, m.mode)
		if err != nil {
			return err
		}
		p, ok := ph.Primary(r.ID)
		if !ok {
			return fmt.Errorf("master: %s lost primary of region %d", r.Primary, r.ID)
		}
		if err := replica.Attach(p, b); err != nil {
			return err
		}
		if _, err := p.Sync(b); err != nil {
			return err
		}
		m.mu.Lock()
		if err := m.rmap.AddBackup(r.ID, cand); err != nil {
			m.mu.Unlock()
			return err
		}
		updated, _ := m.rmap.ByID(r.ID)
		m.mu.Unlock()
		m.events.Record(obs.Event{
			Type: obs.EvBackupReplaced, Node: m.name,
			Msg: "replica slot refilled, state transfer complete",
			Fields: map[string]string{
				"region":   fmt.Sprint(r.ID),
				"backup":   cand,
				"replaced": avoid,
			},
		})
		r = updated
	}
	return nil
}
