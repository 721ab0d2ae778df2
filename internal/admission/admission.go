// Package admission implements signal-driven admission control for the
// server worker pools (DESIGN.md "Data path"). A Controller watches sampled
// worker-queue wait (the "dispatch" stage of the request pipeline) and
// closes a feedback loop over the pool's wake-up threshold: when queue
// wait crosses the high-water bound it tightens the threshold so tasks
// spread across more workers, and once the threshold is at its floor it
// escalates to delaying, then shedding, the lowest-priority tenant's
// load — bounded queues instead of unbounded tail growth.
//
// State machine (evaluated once per Window observations, hysteresis via
// the low-water bound):
//
//	        wait > high            wait > high, threshold at floor
//	normal ───────────► (tighten) ───────────► delay ───► shed
//	  ▲                                          │           │
//	  └───── wait < low: relax threshold ◄───────┴───────────┘
//
// A Controller is nil-safe and cheap when idle: Admit is one atomic
// load on the fast path.
package admission

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/obs"
)

// Action is an admission decision for one task.
type Action int

const (
	// Admit lets the task through untouched.
	Admit Action = iota
	// Delay admits the task after pacing it by Decision.Delay.
	Delay
	// Shed rejects the task; the server replies overloaded and the
	// client backs off and retries.
	Shed
)

// State is the controller's position in the escalation ladder.
type State int

const (
	// StateNormal: queue wait under control; threshold may still be
	// tightened below the configured maximum.
	StateNormal State = iota
	// StateDelay: threshold at floor and queue wait still high; the
	// lowest-priority tenant's tasks are paced.
	StateDelay
	// StateShed: pacing was not enough; lowest-priority tasks are
	// rejected until queue wait falls below the low-water bound.
	StateShed
)

func (s State) String() string {
	switch s {
	case StateDelay:
		return "delay"
	case StateShed:
		return "shed"
	default:
		return "normal"
	}
}

// Config parameterizes a Controller. Zero values take defaults.
type Config struct {
	// MaxThreshold is the pool's configured wake-up threshold (the
	// server's TaskThreshold) — the controller's relaxed ceiling.
	MaxThreshold int
	// MinThreshold is the floor tightening stops at (default 1: fan
	// tasks out to every idle worker before escalating).
	MinThreshold int
	// HighWater is the sampled queue-wait EWMA above which the
	// controller tightens/escalates (default 2ms).
	HighWater time.Duration
	// LowWater is the EWMA below which it relaxes/de-escalates
	// (default HighWater/4).
	LowWater time.Duration
	// Window is how many observations between decisions (default 16).
	Window int
	// DelayStep is the pacing delay applied per task in StateDelay
	// (default 200µs).
	DelayStep time.Duration
	// Disabled pins the threshold at MaxThreshold and admits
	// everything — the fixed-knob baseline the bench compares against.
	Disabled bool
	// Events, when non-nil, journals every walk of the escalation
	// ladder (normal ⇄ delay ⇄ shed) with the wait EWMA that drove it.
	Events *obs.EventLog
	// Node labels journal entries with the owning server's name.
	Node string
}

// Decision is Admit/Delay/Shed plus the pacing duration for Delay.
type Decision struct {
	Action Action
	Delay  time.Duration
}

// Snapshot is the controller's counters and current state, for metrics
// exposition and bench reports.
type Snapshot struct {
	State     State
	Threshold int
	// WaitEWMA is the smoothed queue-wait estimate driving decisions.
	WaitEWMA time.Duration
	// Tightens and Relaxes count threshold adjustments.
	Tightens uint64
	Relaxes  uint64
	// Delayed and Shed count per-tenant admission actions.
	Delayed map[string]uint64
	Shed    map[string]uint64
}

// Controller implements the admission state machine. All methods are
// nil-safe; a nil *Controller admits everything at threshold 0 (callers
// treat 0 as "use the configured default").
type Controller struct {
	cfg Config

	threshold atomic.Int64
	state     atomic.Int64

	mu       sync.Mutex
	ewma     time.Duration
	pending  int
	tightens uint64
	relaxes  uint64
	delayed  map[string]uint64
	shed     map[string]uint64
}

// New returns a controller for a pool whose configured wake-up
// threshold is cfg.MaxThreshold.
func New(cfg Config) *Controller {
	if cfg.MaxThreshold <= 0 {
		cfg.MaxThreshold = 64
	}
	if cfg.MinThreshold <= 0 {
		cfg.MinThreshold = 1
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 2 * time.Millisecond
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = cfg.HighWater / 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.DelayStep <= 0 {
		cfg.DelayStep = 200 * time.Microsecond
	}
	c := &Controller{
		cfg:     cfg,
		delayed: make(map[string]uint64),
		shed:    make(map[string]uint64),
	}
	c.threshold.Store(int64(cfg.MaxThreshold))
	return c
}

// Threshold returns the current effective wake-up threshold. Nil-safe:
// a nil controller returns 0 and callers fall back to their configured
// value.
func (c *Controller) Threshold() int {
	if c == nil {
		return 0
	}
	return int(c.threshold.Load())
}

// State returns the current escalation state.
func (c *Controller) State() State {
	if c == nil {
		return StateNormal
	}
	return State(c.state.Load())
}

// Observe feeds one sampled worker-queue wait into the feedback loop.
// Decisions fire at most once per Window observations.
func (c *Controller) Observe(wait time.Duration) {
	if c == nil || c.cfg.Disabled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// EWMA with alpha 1/8: smooth enough to ride out one-off stalls,
	// fast enough to catch a flash burst within a few samples.
	if c.ewma == 0 {
		c.ewma = wait
	} else {
		c.ewma += (wait - c.ewma) / 8
	}
	c.pending++
	if c.pending < c.cfg.Window {
		return
	}
	c.pending = 0

	th := int(c.threshold.Load())
	st := State(c.state.Load())
	switch {
	case c.ewma > c.cfg.HighWater:
		if th > c.cfg.MinThreshold {
			th /= 2
			if th < c.cfg.MinThreshold {
				th = c.cfg.MinThreshold
			}
			c.threshold.Store(int64(th))
			c.tightens++
		} else if st < StateShed {
			c.state.Store(int64(st + 1))
			c.recordTransition(st, st+1)
		}
	case c.ewma < c.cfg.LowWater:
		if st > StateNormal {
			c.state.Store(int64(st - 1))
			c.recordTransition(st, st-1)
		} else if th < c.cfg.MaxThreshold {
			th *= 2
			if th > c.cfg.MaxThreshold {
				th = c.cfg.MaxThreshold
			}
			c.threshold.Store(int64(th))
			c.relaxes++
		}
	}
}

// recordTransition journals one walk of the escalation ladder. Called
// with c.mu held; the event ring takes its own lock and never calls
// back into the controller.
func (c *Controller) recordTransition(from, to State) {
	level := obs.LevelInfo
	msg := "admission pressure easing, de-escalated"
	if to > from {
		level = obs.LevelWarn
		msg = "queue wait high with threshold at floor, escalated"
	}
	c.cfg.Events.Record(obs.Event{
		Type: obs.EvAdmissionState, Node: c.cfg.Node, Level: level, Msg: msg,
		Fields: map[string]string{
			"from":      from.String(),
			"to":        to.String(),
			"wait_ewma": c.ewma.String(),
		},
	})
}

// Admit decides one task's fate. Only the lowest priority class (0) is
// ever delayed or shed; higher priorities always pass. tenant labels
// the per-tenant counters.
func (c *Controller) Admit(tenant string, priority uint8) Decision {
	if c == nil || c.cfg.Disabled || priority > 0 {
		return Decision{Action: Admit}
	}
	switch State(c.state.Load()) {
	case StateDelay:
		c.mu.Lock()
		c.delayed[tenant]++
		c.mu.Unlock()
		return Decision{Action: Delay, Delay: c.cfg.DelayStep}
	case StateShed:
		c.mu.Lock()
		c.shed[tenant]++
		c.mu.Unlock()
		return Decision{Action: Shed}
	default:
		return Decision{Action: Admit}
	}
}

// Snapshot returns the current state and counters.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d := make(map[string]uint64, len(c.delayed))
	for k, v := range c.delayed {
		d[k] = v
	}
	s := make(map[string]uint64, len(c.shed))
	for k, v := range c.shed {
		s[k] = v
	}
	return Snapshot{
		State:     State(c.state.Load()),
		Threshold: int(c.threshold.Load()),
		WaitEWMA:  c.ewma,
		Tightens:  c.tightens,
		Relaxes:   c.relaxes,
		Delayed:   d,
		Shed:      s,
	}
}

// Collect implements metrics.Source with the tebis_admission_*
// families. Tenants appear on their first delayed or shed task.
func (c *Controller) Collect() []metrics.Family {
	if c == nil {
		return nil
	}
	sn := c.Snapshot()
	delayed := metrics.Counter("tebis_admission_delayed_total",
		"Tasks paced by admission control, by tenant.")
	for tenant, n := range sn.Delayed {
		delayed.Add(fmt.Sprintf(`tenant=%q`, tenant), float64(n))
	}
	shed := metrics.Counter("tebis_admission_shed_total",
		"Tasks rejected by admission control, by tenant.")
	for tenant, n := range sn.Shed {
		shed.Add(fmt.Sprintf(`tenant=%q`, tenant), float64(n))
	}
	return []metrics.Family{
		metrics.Gauge("tebis_admission_state",
			"Admission-control state: 0 normal, 1 delaying, 2 shedding lowest-priority load.",
			metrics.Value(float64(sn.State))),
		metrics.Gauge("tebis_admission_threshold",
			"Current adaptive worker wake-up threshold (tasks queued per worker before spilling to the next).",
			metrics.Value(float64(sn.Threshold))),
		metrics.Gauge("tebis_admission_queue_wait_seconds",
			"Smoothed sampled worker-queue wait driving admission decisions.",
			metrics.Value(sn.WaitEWMA.Seconds())),
		metrics.Counter("tebis_admission_threshold_adjustments_total",
			"Adaptive threshold adjustments, by direction.",
			metrics.Labeled("direction", "tighten", float64(sn.Tightens)),
			metrics.Labeled("direction", "relax", float64(sn.Relaxes))),
		delayed, shed,
	}
}

// Enabled reports whether the controller is live (non-nil and not
// running in fixed-knob mode).
func (c *Controller) Enabled() bool {
	return c != nil && !c.cfg.Disabled
}

// GCAllowed reports whether background value-log GC may run right now
// (DESIGN.md "Value-log GC"). GC is the lowest-priority work in the system,
// so any sign of load pressure pauses it: an escalated state (delay/shed)
// or a tightened wake-up threshold both mean foreground latency already
// suffers and GC must yield. Nil or disabled controllers never pace.
func (c *Controller) GCAllowed() bool {
	if c == nil || c.cfg.Disabled {
		return true
	}
	if State(c.state.Load()) != StateNormal {
		return false
	}
	return int(c.threshold.Load()) >= c.cfg.MaxThreshold
}
