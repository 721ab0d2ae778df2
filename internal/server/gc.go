package server

import (
	"fmt"
	"time"

	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
)

// DefaultGCInterval is the pause between background GC passes when
// GCConfig.Interval is zero.
const DefaultGCInterval = 500 * time.Millisecond

// GCConfig configures online value-log garbage collection on hosted
// primaries (DESIGN.md "Value-log GC"). The zero value keeps GC off; the
// space ledger and its metric families are live either way.
type GCConfig struct {
	// Enabled starts a background worker that sweeps every hosted
	// primary engine once per Interval.
	Enabled bool
	// MinDeadRatio is the dead-byte fraction past which a sealed
	// segment becomes a GC victim (lsm default 0.5 if zero).
	MinDeadRatio float64
	// MaxSegments caps victims per pass (lsm default 4 if zero).
	MaxSegments int
	// Interval is the pause between passes (DefaultGCInterval if zero).
	Interval time.Duration
	// Stats collects pass counters (created on demand when nil).
	Stats *metrics.GCStats
}

// GCStats returns the node's online-GC counters.
func (s *Server) GCStats() *metrics.GCStats { return s.cfg.GC.Stats }

// gcPolicy builds the per-pass policy: thresholds from the config, the
// admission controller as pacer (nil-safe — fixed-knob servers never
// pause), counters into the node's stats sink.
func (s *Server) gcPolicy() lsm.GCPolicy {
	return lsm.GCPolicy{
		MinDeadRatio: s.cfg.GC.MinDeadRatio,
		MaxSegments:  s.cfg.GC.MaxSegments,
		Pacer:        s.ctrl,
		Stats:        s.cfg.GC.Stats,
	}
}

// recordGCPass journals a GC pass that had effect. Idle ticks (nothing
// eligible) stay out of the event ring — the background worker fires
// every 500ms and would otherwise drown real transitions.
func (s *Server) recordGCPass(res lsm.GCResult) {
	if res.SegmentsFreed == 0 && res.RecordsMoved == 0 && res.RecordsDropped == 0 {
		return
	}
	s.cfg.Events.Record(obs.Event{
		Type: obs.EvGCPass, Node: s.cfg.Name,
		Msg: "value-log GC pass reclaimed space",
		Fields: map[string]string{
			"segments_freed":  fmt.Sprint(res.SegmentsFreed),
			"records_moved":   fmt.Sprint(res.RecordsMoved),
			"records_dropped": fmt.Sprint(res.RecordsDropped),
			"bytes_reclaimed": fmt.Sprint(res.BytesReclaimed),
		},
	})
}

// gcLoop is the background GC worker: one pass over the hosted
// primaries per interval, paced from inside GCOnce by the admission
// controller. Pass errors are tolerated — a closing engine returns
// ErrClosed mid-sweep — because the next tick retries everything.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	interval := s.cfg.GC.Interval
	if interval <= 0 {
		interval = DefaultGCInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			for _, db := range s.primaryDBs() {
				res, err := db.GCOnce(s.gcPolicy())
				if err != nil {
					break
				}
				s.recordGCPass(res)
			}
		}
	}
}

// primaryDBs snapshots the engines this server hosts as primary — the
// only role that runs GC; backups free victims on OpGCRelease.
func (s *Server) primaryDBs() []*lsm.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	dbs := make([]*lsm.DB, 0, len(s.regions))
	for _, hr := range s.regions {
		if hr.db != nil {
			dbs = append(dbs, hr.db)
		}
	}
	return dbs
}
