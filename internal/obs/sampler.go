package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Point is one time-series sample: a value read at offset T from the
// sampler's start.
type Point struct {
	T time.Duration
	V float64
}

// seriesRing is one series' fixed-size sample buffer. When full, new
// points evict the oldest, so the ring always holds the latest window.
type seriesRing struct {
	pts  []Point
	head int
	size int
}

func (sr *seriesRing) push(p Point) {
	if sr.size == len(sr.pts) {
		sr.pts[sr.head] = p
		sr.head++
		if sr.head == len(sr.pts) {
			sr.head = 0
		}
		return
	}
	tail := sr.head + sr.size
	if tail >= len(sr.pts) {
		tail -= len(sr.pts)
	}
	sr.pts[tail] = p
	sr.size++
}

func (sr *seriesRing) snapshot() []Point {
	out := make([]Point, 0, sr.size)
	for i := 0; i < sr.size; i++ {
		j := sr.head + i
		if j >= len(sr.pts) {
			j -= len(sr.pts)
		}
		out = append(out, sr.pts[j])
	}
	return out
}

// DefaultSampleInterval is the sampler's tick period when NewSampler
// is given none.
const DefaultSampleInterval = 100 * time.Millisecond

// DefaultSampleCap is the per-series ring capacity when NewSampler is
// given none: at the default interval it holds ~50s of history.
const DefaultSampleCap = 512

// Sampler periodically snapshots every registry series into
// fixed-size per-series rings — the time-series dimension the
// point-in-time /metrics scrape lacks, and the data source for the
// paper-figure harness's throughput/amplification-over-time CSVs
// (Fig. 6-7). It serves the buffered history as JSON at
// /metrics/history. A nil *Sampler is inert.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	capacity int

	mu     sync.Mutex
	series map[string]*seriesRing
	ticks  uint64

	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewSampler returns a sampler that reads every registry series every
// interval
// (DefaultSampleInterval when <= 0) into rings of capacity points
// (DefaultSampleCap when <= 0). Call Start to begin sampling.
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCap
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		capacity: capacity,
		series:   make(map[string]*seriesRing),
	}
}

// Interval returns the sampler's tick period (0 on a nil sampler).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Start launches the sampling loop in a background goroutine. It is a
// no-op on a nil or already-started sampler.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.start = time.Now()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.mu.Unlock()
	go s.loop()
}

// Stop halts the sampling loop and waits for it to exit. The buffered
// history stays readable. No-op on a nil or never-started sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Tick takes one sample immediately. The loop calls it on every tick;
// tests and the figure harness call it directly for deterministic
// sample counts.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	vals := s.reg.ReadSeries()
	now := time.Now()
	s.mu.Lock()
	if s.start.IsZero() {
		s.start = now
	}
	off := now.Sub(s.start)
	for name, v := range vals {
		if math.IsNaN(v) {
			// Undefined gauges (ratios before any user bytes) are not
			// samples; recording them would also break JSON export.
			continue
		}
		sr := s.series[name]
		if sr == nil {
			sr = &seriesRing{pts: make([]Point, s.capacity)}
			s.series[name] = sr
		}
		sr.push(Point{T: off, V: v})
	}
	s.ticks++
	s.mu.Unlock()
}

// Ticks returns how many samples have been taken.
func (s *Sampler) Ticks() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// History returns every buffered series, points in time order.
func (s *Sampler) History() map[string][]Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]Point, len(s.series))
	for name, sr := range s.series {
		out[name] = sr.snapshot()
	}
	return out
}

// WriteCSV renders the buffered history as CSV with one row per sample
// (`series,t_ms,v`), series sorted by name and points in time order —
// the shape scenario figures want when pulled straight from
// /metrics/history?format=csv without the bench harness.
func (s *Sampler) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "t_ms", "v"}); err != nil {
		return err
	}
	if s != nil {
		hist := s.History()
		names := make([]string, 0, len(hist))
		for name := range hist {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, p := range hist[name] {
				err := cw.Write([]string{
					name,
					strconv.FormatFloat(float64(p.T)/float64(time.Millisecond), 'f', 3, 64),
					strconv.FormatFloat(p.V, 'g', -1, 64),
				})
				if err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// historyJSON is the /metrics/history document: per-series parallel
// arrays of millisecond offsets and values.
type historyJSON struct {
	IntervalMS float64               `json:"interval_ms"`
	Ticks      uint64                `json:"ticks"`
	Series     map[string]seriesJSON `json:"series"`
	Names      []string              `json:"names"`
}

type seriesJSON struct {
	TMS []float64 `json:"t_ms"`
	V   []float64 `json:"v"`
}

// WriteJSON renders the buffered history as JSON. Series names are
// listed sorted under "names" so consumers get deterministic ordering.
func (s *Sampler) WriteJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"interval_ms":0,"ticks":0,"series":{},"names":[]}`)
		return err
	}
	hist := s.History()
	doc := historyJSON{
		IntervalMS: float64(s.interval) / float64(time.Millisecond),
		Ticks:      s.Ticks(),
		Series:     make(map[string]seriesJSON, len(hist)),
		Names:      make([]string, 0, len(hist)),
	}
	for name, pts := range hist {
		sj := seriesJSON{TMS: make([]float64, 0, len(pts)), V: make([]float64, 0, len(pts))}
		for _, p := range pts {
			sj.TMS = append(sj.TMS, float64(p.T)/float64(time.Millisecond))
			sj.V = append(sj.V, p.V)
		}
		doc.Series[name] = sj
		doc.Names = append(doc.Names, name)
	}
	sort.Strings(doc.Names)
	return json.NewEncoder(w).Encode(doc)
}
