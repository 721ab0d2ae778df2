package admission

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tebis/internal/obs"
)

func TestNilController(t *testing.T) {
	var c *Controller
	c.Observe(time.Second)
	if d := c.Admit("t0", 0); d.Action != Admit {
		t.Fatalf("nil controller Admit = %v, want Admit", d.Action)
	}
	if c.Threshold() != 0 || c.State() != StateNormal || c.Enabled() {
		t.Fatalf("nil controller not inert: th=%d st=%v", c.Threshold(), c.State())
	}
}

// feed pushes enough identical observations through one decision window.
func feed(c *Controller, wait time.Duration, windows int) {
	for i := 0; i < windows*16; i++ {
		c.Observe(wait)
	}
}

func TestTightenThenEscalate(t *testing.T) {
	c := New(Config{MaxThreshold: 64, HighWater: time.Millisecond, Window: 16})
	if got := c.Threshold(); got != 64 {
		t.Fatalf("initial threshold = %d, want 64", got)
	}
	// Sustained queue wait over high water: threshold halves 64 → 1.
	feed(c, 10*time.Millisecond, 6)
	if got := c.Threshold(); got != 1 {
		t.Fatalf("threshold after sustained overload = %d, want 1", got)
	}
	if c.State() != StateNormal {
		t.Fatalf("state = %v, want normal while threshold still tightening", c.State())
	}
	// At the floor and still hot: escalate delay → shed.
	feed(c, 10*time.Millisecond, 1)
	if c.State() != StateDelay {
		t.Fatalf("state = %v, want delay", c.State())
	}
	if d := c.Admit("noisy", 0); d.Action != Delay || d.Delay <= 0 {
		t.Fatalf("delay-state Admit = %+v", d)
	}
	if d := c.Admit("vip", 1); d.Action != Admit {
		t.Fatalf("high-priority Admit in delay state = %v, want Admit", d.Action)
	}
	feed(c, 10*time.Millisecond, 1)
	if c.State() != StateShed {
		t.Fatalf("state = %v, want shed", c.State())
	}
	if d := c.Admit("noisy", 0); d.Action != Shed {
		t.Fatalf("shed-state Admit = %v, want Shed", d.Action)
	}

	snap := c.Snapshot()
	if snap.Tightens == 0 || snap.Delayed["noisy"] != 1 || snap.Shed["noisy"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRelaxRecovers(t *testing.T) {
	c := New(Config{MaxThreshold: 32, HighWater: time.Millisecond, Window: 16})
	feed(c, 10*time.Millisecond, 10) // floor + shed
	if c.State() != StateShed {
		t.Fatalf("state = %v, want shed", c.State())
	}
	// EWMA must decay below low water (250µs), then each window
	// de-escalates one step and doubles the threshold back up.
	feed(c, 0, 20)
	if c.State() != StateNormal {
		t.Fatalf("state = %v, want normal after recovery", c.State())
	}
	if got := c.Threshold(); got != 32 {
		t.Fatalf("threshold after recovery = %d, want 32", got)
	}
	if c.Snapshot().Relaxes == 0 {
		t.Fatal("no relax adjustments counted")
	}
}

func TestDisabledIsFixedKnob(t *testing.T) {
	c := New(Config{MaxThreshold: 64, Disabled: true})
	feed(c, time.Second, 10)
	if got := c.Threshold(); got != 64 {
		t.Fatalf("disabled controller moved threshold to %d", got)
	}
	if d := c.Admit("t0", 0); d.Action != Admit {
		t.Fatalf("disabled controller Admit = %v", d.Action)
	}
	if c.Enabled() {
		t.Fatal("Disabled controller reports Enabled")
	}
}

func TestRegisterFamilies(t *testing.T) {
	c := New(Config{MaxThreshold: 64, HighWater: time.Millisecond, Window: 16})
	reg := obs.NewRegistry()
	reg.Register(obs.Labels{"node": "s0"}, c)
	feed(c, 10*time.Millisecond, 8)
	c.Admit("t0", 0)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"# TYPE tebis_admission_state gauge",
		"# TYPE tebis_admission_threshold gauge",
		"# TYPE tebis_admission_queue_wait_seconds gauge",
		"# TYPE tebis_admission_threshold_adjustments_total counter",
		"# TYPE tebis_admission_delayed_total counter",
		"# TYPE tebis_admission_shed_total counter",
	} {
		if !strings.Contains(out, fam) {
			t.Fatalf("exposition missing %q:\n%s", fam, out)
		}
	}
	// 8 overloaded windows: 6 tightens (64 → 1), then delay, then shed —
	// so the admitted task lands in the shed counter.
	if !strings.Contains(out, `tebis_admission_shed_total{node="s0",tenant="t0"} 1`) {
		t.Fatalf("per-tenant shed counter missing:\n%s", out)
	}
}

func TestConcurrentObserveAdmit(t *testing.T) {
	c := New(Config{MaxThreshold: 64, HighWater: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Observe(time.Duration(i%5) * time.Millisecond)
				c.Admit("t0", uint8(g%2))
				if i%500 == 0 {
					c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
}
