package master

import (
	"fmt"

	"tebis/internal/metrics"
	"tebis/internal/obs"
)

// Observe registers the master with reg under its name.
func (m *Master) Observe(reg *obs.Registry) {
	reg.Register(obs.Labels{"master": m.name}, m)
}

// Collect implements metrics.Source with the reconfiguration families:
// lifetime migration and abort counters and the per-region bytes
// shipped to seed migration destinations over the index-ship path (the
// figure-of-merit showing migrations reuse built indexes instead of
// re-compacting).
func (m *Master) Collect() []metrics.Family {
	shipped := metrics.Counter("tebis_region_ship_bytes_total",
		"Bytes of built index segments and log tail shipped to seed each migrated region's destination.")
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, n := range m.shipBytes {
		shipped.Add(fmt.Sprintf(`region="%d"`, id), float64(n))
	}
	return []metrics.Family{
		metrics.Counter("tebis_region_migrations_total",
			"Completed live region migrations.", metrics.Value(float64(m.migrations))),
		metrics.Counter("tebis_region_reconfig_aborts_total",
			"Reconfigurations rolled back (failed mid-flight or aborted by a successor master).",
			metrics.Value(float64(m.reconfAborts))),
		shipped,
	}
}
