package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestEventLogRingAndCounts(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		l.Record(Event{Type: EvGCPass, Node: "s0", Fields: map[string]string{"pass": fmt.Sprint(i)}})
	}
	l.Record(Event{Type: EvBackupEvicted, Node: "s0"})

	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	// Oldest first, strictly increasing seq, newest survives the wrap.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Type != EvBackupEvicted {
		t.Fatalf("newest retained = %q", evs[len(evs)-1].Type)
	}
	// Counts are cumulative: the evicted ring entries still count.
	counts := l.Counts()
	if counts[EvGCPass] != 6 || counts[EvBackupEvicted] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if got := l.OfType(EvBackupEvicted); len(got) != 1 {
		t.Fatalf("OfType(evicted) = %d entries", len(got))
	}
	for _, e := range evs {
		if e.Time.IsZero() || e.Level != LevelInfo {
			t.Fatalf("event not stamped: %+v", e)
		}
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Record(Event{Type: EvGCPass})
	l.SetSink(nil)
	if l.Events() != nil || l.Counts() != nil {
		t.Fatal("nil EventLog must report nothing")
	}
	var h *Health
	h.AddCheck("x", func() error { return nil })
	if !h.Ready() {
		t.Fatal("nil Health must be ready")
	}
	var lg *Logger
	lg.Info("discarded", "k", "v")
}

func TestEventLogSinkSharesStream(t *testing.T) {
	var buf strings.Builder
	lg := NewLogger(&buf, LevelInfo)
	l := NewEventLog(8)
	l.SetSink(lg)

	lg.Info("server boot", "addr", "127.0.0.1:9")
	l.Record(Event{Type: EvPromoted, Node: "s1",
		Msg: "backup promoted", Fields: map[string]string{"region": "3"}})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "level=info") || !strings.Contains(lines[0], "addr=127.0.0.1:9") ||
		!strings.Contains(lines[0], `msg="server boot"`) {
		t.Fatalf("log line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "event=promoted") || !strings.Contains(lines[1], "node=s1") ||
		!strings.Contains(lines[1], "region=3") {
		t.Fatalf("event line = %q", lines[1])
	}
}

func TestLoggerLevelsAndQuoting(t *testing.T) {
	var buf strings.Builder
	lg := NewLogger(&buf, LevelWarn)
	lg.Debug("hidden")
	lg.Info("hidden too")
	lg.Warn("kept", "why", "queue full")
	lg.Error("also kept")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("below-threshold lines leaked:\n%s", out)
	}
	if !strings.Contains(out, `why="queue full"`) {
		t.Fatalf("value with space not quoted:\n%s", out)
	}
	if !strings.Contains(out, "level=error") {
		t.Fatalf("missing error line:\n%s", out)
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Event{Type: EvAdmissionState})
			}
		}()
	}
	wg.Wait()
	if got := l.Counts()[EvAdmissionState]; got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}
	if len(l.Events()) != 64 {
		t.Fatalf("ring holds %d, want 64", len(l.Events()))
	}
}

func TestHealthChecks(t *testing.T) {
	h := NewHealth()
	if !h.Ready() {
		t.Fatal("empty health must be ready")
	}
	degraded := false
	h.AddCheck("replication", func() error {
		if degraded {
			return fmt.Errorf("1 backup short")
		}
		return nil
	})
	h.AddCheck("device", func() error { return nil })
	if !h.Ready() {
		t.Fatal("passing checks must be ready")
	}
	degraded = true
	failing := h.Failing()
	if len(failing) != 1 || failing["replication"] != "1 backup short" {
		t.Fatalf("failing = %v", failing)
	}
}
