package master

import (
	"sort"

	"tebis/internal/region"
)

// BackupHealth is one backup slot's view in the cluster health report.
type BackupHealth struct {
	Name string `json:"name"`
	Live bool   `json:"live"`
	// LagOps/LagBytes/StalenessSeconds come from the primary's lag
	// tracker: acked-vs-shipped distance and last-ack age toward this
	// backup. Zero when fully caught up.
	LagOps           uint64  `json:"lag_ops"`
	LagBytes         uint64  `json:"lag_bytes"`
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// RegionHealth is one region's row in the cluster health report.
type RegionHealth struct {
	ID      region.ID      `json:"region"`
	Epoch   uint32         `json:"epoch"`
	Primary string         `json:"primary"`
	Frozen  bool           `json:"frozen"`
	Backups []BackupHealth `json:"backups"`
	// ReplicaDeficit is how many replica slots the region is short of
	// the cluster replication factor (live backups only).
	ReplicaDeficit int `json:"replica_deficit"`
}

// ClusterHealthReport is the master's aggregate view of the cluster:
// liveness, per-node readiness, and per-region replication health with
// the primaries' lag toward every backup. It is JSON-serializable for
// the /debug and tebis-top surfaces.
type ClusterHealthReport struct {
	Master        string `json:"master"`
	Healthy       bool   `json:"healthy"`
	Reconfiguring bool   `json:"reconfiguring"`
	// LiveServers and DeadServers partition every registered host.
	LiveServers []string `json:"live_servers"`
	DeadServers []string `json:"dead_servers,omitempty"`
	// NotReady maps node name → its readiness error (degraded, frozen,
	// or device-faulted); absent nodes would serve.
	NotReady map[string]string `json:"not_ready,omitempty"`
	Regions  []RegionHealth    `json:"regions"`
	// ReplicationFactor is the cluster target each region is judged
	// against.
	ReplicationFactor int `json:"replication_factor"`
}

// ClusterHealth aggregates liveness, readiness, replication-factor
// deficits, lease/epoch state, and per-backup lag into one report. The
// report is healthy when every registered server is live and ready and
// no region runs below the replication factor.
func (m *Master) ClusterHealth() ClusterHealthReport {
	m.mu.Lock()
	rep := ClusterHealthReport{
		Master:            m.name,
		Reconfiguring:     m.reconfiguring,
		ReplicationFactor: m.replicas,
		NotReady:          map[string]string{},
	}
	hosts := make(map[string]Host, len(m.hosts))
	for name, h := range m.hosts {
		hosts[name] = h
		if m.live[name] {
			rep.LiveServers = append(rep.LiveServers, name)
		} else {
			rep.DeadServers = append(rep.DeadServers, name)
		}
	}
	live := make(map[string]bool, len(m.live))
	for name, ok := range m.live {
		live[name] = ok
	}
	var rmap *region.Map
	if m.rmap != nil {
		rmap = m.rmap.Clone()
	}
	m.mu.Unlock()
	sort.Strings(rep.LiveServers)
	sort.Strings(rep.DeadServers)

	// Per-node readiness, probed outside the master lock: Ready walks
	// server-internal state.
	for _, name := range rep.LiveServers {
		if err := hosts[name].Ready(); err != nil {
			rep.NotReady[name] = err.Error()
		}
	}

	rep.Healthy = len(rep.DeadServers) == 0 && len(rep.NotReady) == 0
	if rmap == nil {
		return rep
	}
	for _, r := range rmap.Regions {
		rh := RegionHealth{ID: r.ID, Epoch: r.Epoch, Primary: r.Primary}
		if ph := hosts[r.Primary]; ph != nil {
			rh.Frozen = ph.Frozen(r.ID)
		}
		liveBackups := 0
		for _, b := range r.Backups {
			bh := BackupHealth{Name: b, Live: live[b]}
			if bh.Live {
				liveBackups++
			}
			if ph := hosts[r.Primary]; ph != nil && live[r.Primary] {
				if lag := ph.Lag(); lag != nil {
					bh.LagOps, bh.LagBytes = lag.Lag(uint64(r.ID), b)
					bh.StalenessSeconds = lag.Staleness(uint64(r.ID), b).Seconds()
				}
			}
			rh.Backups = append(rh.Backups, bh)
		}
		if liveBackups < rep.ReplicationFactor {
			rh.ReplicaDeficit = rep.ReplicationFactor - liveBackups
			rep.Healthy = false
		}
		rep.Regions = append(rep.Regions, rh)
	}
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].ID < rep.Regions[j].ID })
	return rep
}
