// Package metrics provides the measurement primitives behind the store's
// registry and the benchmark: lock-free log-bucketed latency histograms
// (HdrHistogram-style), atomic counters, and percentile reports. The paper reports mean latency vs
// throughput curves (Figs. 7, 8, 10), selectivity sweeps (Fig. 9), and a
// staleness distribution (Fig. 11); all of them are built from Histogram.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram records int64 samples (typically nanoseconds) in logarithmic
// buckets: 64 major buckets (one per power of two) each split into 16 linear
// sub-buckets, giving ≤6.25% relative error per sample. Recording is
// lock-free and safe for concurrent use.
type Histogram struct {
	counts [64 * subBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

const subBuckets = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Major bucket: position of the highest set bit; sub-bucket: the next
	// log2(subBuckets) bits below it.
	high := 63 - bits.LeadingZeros64(uint64(v))
	shift := high - 4 // 4 = log2(subBuckets)
	sub := int(v>>uint(shift)) & (subBuckets - 1)
	return (high-3)*subBuckets + sub
}

// bucketUpper returns a representative (upper-bound) value for bucket i.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	major := i/subBuckets + 3
	sub := i % subBuckets
	base := int64(1) << uint(major)
	return base + int64(sub+1)<<uint(major-4) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration adds one sample measured as a time.Duration (in ns).
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest recorded sample, or 0 when empty. Record bumps
// total before the min CAS completes, so a concurrent reader can observe
// total > 0 while min is still the empty sentinel; that window reads as 0
// rather than leaking math.MaxInt64.
func (h *Histogram) Min() int64 {
	if h.total.Load() == 0 {
		return 0
	}
	m := h.min.Load()
	if m == math.MaxInt64 {
		return 0
	}
	return m
}

// Snapshot captures the summary statistics of a histogram at one instant.
type Snapshot struct {
	Count         int64
	Mean          float64
	Min, Max      int64
	P50, P95, P99 int64
	P999          int64
}

// Snapshot returns the current summary statistics, read consistently enough
// for a concurrent dump.
//
// Weak-consistency contract: recording never blocks and Snapshot never
// blocks recorders, so a snapshot taken concurrently with Record is not a
// consistent cut — it may miss (or partially include) the handful of
// records in flight. What Snapshot does guarantee:
//
//   - Count and every quantile derive from ONE pass over the bucket array,
//     so the quantiles are mutually monotone (P50 ≤ P95 ≤ P99 ≤ P999) and
//     consistent with Count — reading them from separate passes could
//     disagree about how many samples exist.
//   - Min is never the empty sentinel when Count > 0, and Min ≤ Max
//     (Record publishes max before min, and both move monotonically).
//   - Quantiles are clamped to Max; Mean is clamped to [Min, Max] when it
//     drifts outside due to a sum/bucket race.
//
// Fields may still lag or lead each other by in-flight records; callers
// needing exact totals must quiesce recorders first.
func (h *Histogram) Snapshot() Snapshot {
	var counts [64 * subBuckets]int64
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return Snapshot{}
	}
	sum := h.sum.Load()
	min := h.min.Load()
	max := h.max.Load()
	if min == math.MaxInt64 {
		min = 0
	}
	quantile := func(q float64) int64 {
		target := int64(math.Ceil(q * float64(total)))
		if target < 1 {
			target = 1
		}
		var seen int64
		for i, c := range counts {
			seen += c
			if seen >= target {
				u := bucketUpper(i)
				if u > max {
					return max
				}
				return u
			}
		}
		return max
	}
	mean := float64(sum) / float64(total)
	if mean < float64(min) {
		mean = float64(min)
	}
	if mean > float64(max) {
		mean = float64(max)
	}
	return Snapshot{
		Count: total,
		Mean:  mean,
		Min:   min,
		Max:   max,
		P50:   quantile(0.50),
		P95:   quantile(0.95),
		P99:   quantile(0.99),
		P999:  quantile(0.999),
	}
}

// Reset zeroes the histogram for a new measurement phase. Like Snapshot it
// is only weakly consistent against concurrent recorders: samples recorded
// while Reset runs may be partially dropped. Quiesce recorders for an exact
// phase boundary.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.min.Store(math.MaxInt64)
}

// String renders the snapshot with duration formatting, assuming samples are
// nanoseconds.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, time.Duration(int64(s.Mean)), time.Duration(s.P50),
		time.Duration(s.P95), time.Duration(s.P99), time.Duration(s.Max))
}

// Counter is a cumulative atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset sets the counter to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }
