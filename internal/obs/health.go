package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health aggregates named readiness checks into the /healthz and
// /readyz endpoints. Liveness (/healthz) answers "is the process
// serving" and is always ok while the mux responds; readiness
// (/readyz) runs every registered check and fails with 503 while any
// of them reports an error — degraded replication, a faulted device.
// All methods are nil-safe: a
// nil *Health has no checks and is always ready.
type Health struct {
	mu     sync.Mutex
	checks []healthCheck
}

// healthCheck is one named readiness predicate; nil error means ready.
type healthCheck struct {
	name string
	fn   func() error
}

// NewHealth returns an empty check set.
func NewHealth() *Health {
	return &Health{}
}

// AddCheck registers one named readiness check. Checks run on every
// /readyz request, so they must be cheap snapshots, not probes.
func (h *Health) AddCheck(name string, fn func() error) {
	if h == nil || fn == nil {
		return
	}
	h.mu.Lock()
	h.checks = append(h.checks, healthCheck{name: name, fn: fn})
	h.mu.Unlock()
}

// Failing runs every check and returns the failing ones, name → error
// text; empty means ready.
func (h *Health) Failing() map[string]string {
	out := map[string]string{}
	if h == nil {
		return out
	}
	h.mu.Lock()
	checks := append([]healthCheck(nil), h.checks...)
	h.mu.Unlock()
	for _, c := range checks {
		if err := c.fn(); err != nil {
			out[c.name] = err.Error()
		}
	}
	return out
}

// Ready reports whether every check passes.
func (h *Health) Ready() bool {
	return len(h.Failing()) == 0
}

// LiveHandler serves /healthz: 200 while the process answers at all.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
}

// ReadyHandler serves /readyz: 200 with {"ready":true} when every
// check passes, 503 naming the failing checks otherwise.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		failing := h.Failing()
		names := make([]string, 0, len(failing))
		for n := range failing {
			names = append(names, n)
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "application/json")
		if len(failing) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"ready":   len(failing) == 0,
			"failing": failing,
		})
	})
}
