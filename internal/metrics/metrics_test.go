package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Snapshot() != (Snapshot{}) {
		t.Error("empty histogram must report zeros")
	}
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Errorf("Mean = %f", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Error("negative samples must clamp to 0")
	}
}

// TestQuantileAccuracy checks the ≤6.25% relative error bound of the
// log-bucketed layout against exact quantiles of random data.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]int64, 20000)
	for i := range samples {
		v := int64(rng.ExpFloat64() * 1e6)
		samples[i] = v
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := h.Snapshot()
	for _, c := range []struct {
		q   float64
		got int64
	}{{0.5, snap.P50}, {0.95, snap.P95}, {0.99, snap.P99}, {0.999, snap.P999}} {
		exact := samples[int(c.q*float64(len(samples)-1))]
		if c.got < exact {
			t.Errorf("q=%.3f: estimate %d below exact %d (must be upper bound)", c.q, c.got, exact)
		}
		if exact > 100 && float64(c.got) > float64(exact)*1.15 {
			t.Errorf("q=%.3f: estimate %d too far above exact %d", c.q, c.got, exact)
		}
	}
}

// TestQuantileEdges: quantiles are clamped to Max, so with one sample every
// quantile is that sample.
func TestQuantileEdges(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	s := h.Snapshot()
	for _, q := range []int64{s.P50, s.P95, s.P99, s.P999} {
		if q != 100 {
			t.Errorf("single-sample quantile = %d, want 100 (%+v)", q, s)
		}
	}
}

func TestBucketMonotonic(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return bucketIndex(a) <= bucketIndex(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketUpperBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, math.MaxInt64 / 2} {
		i := bucketIndex(v)
		if u := bucketUpper(i); u < v {
			t.Errorf("bucketUpper(%d)=%d below sample %d", i, u, v)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.P50 < int64(3*time.Millisecond) {
		t.Errorf("snapshot = %+v", s)
	}
	if !strings.Contains(s.String(), "n=1") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("Load = %d", c.Load())
	}
	if c.Reset() != 5 || c.Load() != 0 {
		t.Error("Reset must return prior value and zero the counter")
	}
}
