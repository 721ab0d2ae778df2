package metrics

import (
	"math"
	"sync"
	"time"
)

// Histogram records latency samples into exponentially spaced buckets
// and answers percentile queries. It covers 100 ns to ~100 s with ~5%
// resolution, which is ample for the paper's 50th-99.99th percentile
// tail-latency plots (Figure 8). All methods are nil-safe: a nil
// *Histogram discards samples and reports zeroes, so optional latency
// wiring needs no setup.
type Histogram struct {
	mu      sync.Mutex
	buckets []uint64
	count   uint64
	min     time.Duration
	max     time.Duration
}

const (
	histBase   = 100 * time.Nanosecond
	histGrowth = 1.05
	histSize   = 500
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, histSize), min: math.MaxInt64}
}

// bucketFor maps a duration to a bucket index: the last bucket whose
// lower bound d reaches, found by binary search in bucketBounds — the
// index logBucket computes, without a logarithm per sample.
func bucketFor(d time.Duration) int {
	i, j := 1, histSize
	for i < j {
		h := int(uint(i+j) >> 1)
		if bucketBounds[h] <= d {
			i = h + 1
		} else {
			j = h
		}
	}
	return i - 1
}

// logBucket is the bucket index by its definition: floor(log_1.05(d /
// 100 ns)), clamped to the histogram. bucketBounds is built from it.
func logBucket(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histBase)) / math.Log(histGrowth))
	if i >= histSize {
		return histSize - 1
	}
	return i
}

// bucketBounds[i] is the shortest duration logBucket puts in bucket i or
// above (bucketBounds[0] is unused): the nearest integer to the bucket's
// nominal lower bound, moved until it is exact.
var bucketBounds = func() (b [histSize]time.Duration) {
	for i := 1; i < histSize; i++ {
		d := time.Duration(math.Round(float64(histBase) * math.Pow(histGrowth, float64(i))))
		for logBucket(d-1) >= i {
			d--
		}
		for logBucket(d) < i {
			d++
		}
		b[i] = d
	}
	return b
}()

// bucketValue returns the representative duration of bucket i.
func bucketValue(i int) time.Duration {
	return time.Duration(float64(histBase) * math.Pow(histGrowth, float64(i)+0.5))
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buckets[bucketFor(d)]++
	h.count++
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Percentile returns the latency at percentile p (0 < p <= 100).
// It returns 0 when the histogram is empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentile(p)
}

// percentile is Percentile under h.mu.
func (h *Histogram) percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Summarize returns the sample count and the percentiles of the Quantiles
// grid, index-aligned with it, from one locked read — what a scrape
// exposes of a histogram.
func (h *Histogram) Summarize() (count uint64, ps []time.Duration) {
	ps = make([]time.Duration, len(Quantiles))
	if h == nil {
		return 0, ps
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, q := range Quantiles {
		ps[i] = h.percentile(q.Percentile)
	}
	return h.count, ps
}

// Collect implements Source for a per-operation latency histogram — the
// Figure 8 tail-latency view. Register it under an "op" label.
func (h *Histogram) Collect() []Family {
	if h == nil {
		return nil
	}
	count, ps := h.Summarize()
	lat := Summary("tebis_op_latency_seconds", "Per-operation service latency (Figure 8).")
	for i, q := range Quantiles {
		lat.Add(`quantile="`+q.Label+`"`, ps[i].Seconds())
	}
	lat.Samples = append(lat.Samples, Sample{Suffix: "_count", Value: float64(count)})
	return []Family{lat,
		Counter("tebis_ops_total", "Operations served, by kind.", Value(float64(count)))}
}

// Merge adds all samples of o into h. A nil h or o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	o.mu.Lock()
	ob := append([]uint64(nil), o.buckets...)
	oc, omin, omax := o.count, o.min, o.max
	o.mu.Unlock()

	h.mu.Lock()
	for i, b := range ob {
		h.buckets[i] += b
	}
	h.count += oc
	if omin < h.min {
		h.min = omin
	}
	if omax > h.max {
		h.max = omax
	}
	h.mu.Unlock()
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.min = math.MaxInt64
	h.max = 0
	h.mu.Unlock()
}

// TailPercentiles are the request percentiles the paper reports in
// Figure 8.
var TailPercentiles = []float64{50, 70, 90, 99, 99.9, 99.99}
