package metrics

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one dimension of a metric's identity. Diff-Index uses a small,
// closed label vocabulary — table, scheme, server, stage, op — so metric
// cardinality stays bounded by the catalog, not the workload.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Gauge is an instantaneous value (queue depth, memtable bytes). Unlike a
// Counter it can go down.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is the process-wide metrics namespace: named, labeled counters,
// gauges (stored or computed) and histograms, created on first use and
// shared by every subsequent lookup with the same name and label set. All
// instruments are lock-free on the hot path; the registry lock is taken only
// on lookup (a read lock) and first creation.
//
// One Registry serves a whole DB: the cluster, every region's LSM store, the
// WAL layer, the index runtime and the client library all record into it, so
// a single Snapshot describes the entire system.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*registeredMetric[*Counter]
	gauges     map[string]*registeredMetric[*Gauge]
	gaugeFuncs map[string]*registeredMetric[func() int64]
	hists      map[string]*registeredMetric[*Histogram]
}

type registeredMetric[T any] struct {
	name   string
	labels []Label // sorted by key
	inst   T
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*registeredMetric[*Counter]),
		gauges:     make(map[string]*registeredMetric[*Gauge]),
		gaugeFuncs: make(map[string]*registeredMetric[func() int64]),
		hists:      make(map[string]*registeredMetric[*Histogram]),
	}
}

// key builds the canonical identity string: name{k1=v1,k2=v2} with labels
// sorted by key. It doubles as the snapshot sort key.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookupOrCreate is the shared lookup path: read-locked fast path, then a
// write-locked create that re-checks under the lock.
func lookupOrCreate[T any](r *Registry, m map[string]*registeredMetric[T], name string, labels []Label, make func() T) T {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.RLock()
	reg, ok := m[k]
	r.mu.RUnlock()
	if ok {
		return reg.inst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg, ok = m[k]; ok {
		return reg.inst
	}
	inst := make()
	m[k] = &registeredMetric[T]{name: name, labels: labels, inst: inst}
	return inst
}

// Counter returns the counter registered under name+labels, creating it on
// first use. Callers should cache the returned pointer when the lookup sits
// on a hot path.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return lookupOrCreate(r, r.counters, name, labels, func() *Counter { return &Counter{} })
}

// Gauge returns the stored gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return lookupOrCreate(r, r.gauges, name, labels, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return lookupOrCreate(r, r.hists, name, labels, NewHistogram)
}

// maxVecLabels bounds a HistogramVec's label keys; the vocabulary's widest
// hot-path histogram is (stage, table, scheme).
const maxVecLabels = 3

// HistogramVec is one histogram name over a fixed list of label keys. Each
// label-value combination is resolved from the registry once and memoised
// in a copy-on-write map, so a hot path pays one lock-free map lookup — no
// registry lock, no label sort, no key building — per record.
type HistogramVec struct {
	reg  *Registry
	name string
	keys []string

	mu    sync.Mutex // serializes misses
	hists atomic.Pointer[map[[maxVecLabels]string]*Histogram]
}

// HistogramVec returns a vector of the histograms registered under name with
// the given label keys (at most three). It is cheap to create; resolve it
// once and keep it where the hot path can reach it.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	if len(keys) > maxVecLabels {
		panic("metrics: HistogramVec supports at most 3 label keys")
	}
	return &HistogramVec{reg: r, name: name, keys: keys}
}

// With returns the histogram for the given label values, one per key in
// order — the same instrument Registry.Histogram returns for those labels.
func (v *HistogramVec) With(values ...string) *Histogram {
	var k [maxVecLabels]string
	copy(k[:], values)
	if m := v.hists.Load(); m != nil {
		if h, ok := (*m)[k]; ok {
			return h
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.hists.Load()
	if old != nil {
		if h, ok := (*old)[k]; ok {
			return h
		}
	}
	labels := make([]Label, len(v.keys))
	for i, key := range v.keys {
		labels[i] = L(key, values[i])
	}
	h := v.reg.Histogram(v.name, labels...)
	next := make(map[[maxVecLabels]string]*Histogram, 1)
	if old != nil {
		for ek, eh := range *old {
			next[ek] = eh
		}
	}
	next[k] = h
	v.hists.Store(&next)
	return h
}

// RegisterGaugeFunc registers a computed gauge: fn is evaluated at snapshot
// (and Value) time. Re-registering the same name+labels replaces the
// function. fn must be safe for concurrent use and must not call back into
// the registry.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64, labels ...Label) {
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[k] = &registeredMetric[func() int64]{name: name, labels: labels, inst: fn}
}

// Value reads a single scalar metric by name+labels, checking counters,
// stored gauges and computed gauges in that order. ok is false when no such
// metric exists.
func (r *Registry) Value(name string, labels ...Label) (v int64, ok bool) {
	k := key(name, sortLabels(labels))
	r.mu.RLock()
	if c, found := r.counters[k]; found {
		r.mu.RUnlock()
		return c.inst.Load(), true
	}
	if g, found := r.gauges[k]; found {
		r.mu.RUnlock()
		return g.inst.Load(), true
	}
	gf, found := r.gaugeFuncs[k]
	r.mu.RUnlock()
	if found {
		// Evaluate outside the registry lock: gauge funcs may take their
		// own locks (e.g. the AUQ-depth roll-up) and must not nest inside
		// the registry's.
		return gf.inst(), true
	}
	return 0, false
}

// MetricPoint is one scalar metric (counter or gauge) in a snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramPoint is one histogram's summary in a snapshot. Latency
// histograms are in nanoseconds; size histograms (e.g. APS batch sizes) are
// unitless.
type HistogramPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	Mean   float64           `json:"mean"`
	Min    int64             `json:"min"`
	Max    int64             `json:"max"`
	P50    int64             `json:"p50"`
	P95    int64             `json:"p95"`
	P99    int64             `json:"p99"`
	P999   int64             `json:"p999"`
}

// RegistrySnapshot is a point-in-time copy of every registered metric,
// sorted by canonical identity so repeated snapshots (and their JSON
// encodings) are stably ordered.
type RegistrySnapshot struct {
	Counters   []MetricPoint    `json:"counters"`
	Gauges     []MetricPoint    `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// MarshalStableJSON encodes the snapshot with a fixed field order and
// alphabetical label keys — the format guarded by the golden-file test.
func (s RegistrySnapshot) MarshalStableJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot copies every metric. Computed gauges are evaluated outside the
// registry lock (see RegisterGaugeFunc). Each instrument is read atomically
// but the snapshot as a whole is not a consistent cut: metrics recorded
// while the snapshot is being taken may appear in some instruments and not
// others.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	counterKeys := sortedKeys(r.counters)
	gaugeKeys := sortedKeys(r.gauges)
	gfKeys := sortedKeys(r.gaugeFuncs)
	histKeys := sortedKeys(r.hists)
	counters := make([]*registeredMetric[*Counter], len(counterKeys))
	for i, k := range counterKeys {
		counters[i] = r.counters[k]
	}
	gauges := make([]*registeredMetric[*Gauge], len(gaugeKeys))
	for i, k := range gaugeKeys {
		gauges[i] = r.gauges[k]
	}
	gfs := make([]*registeredMetric[func() int64], len(gfKeys))
	for i, k := range gfKeys {
		gfs[i] = r.gaugeFuncs[k]
	}
	hists := make([]*registeredMetric[*Histogram], len(histKeys))
	for i, k := range histKeys {
		hists[i] = r.hists[k]
	}
	r.mu.RUnlock()

	var snap RegistrySnapshot
	for _, c := range counters {
		snap.Counters = append(snap.Counters, MetricPoint{Name: c.name, Labels: labelMap(c.labels), Value: c.inst.Load()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, MetricPoint{Name: g.name, Labels: labelMap(g.labels), Value: g.inst.Load()})
	}
	for _, gf := range gfs {
		snap.Gauges = append(snap.Gauges, MetricPoint{Name: gf.name, Labels: labelMap(gf.labels), Value: gf.inst()})
	}
	// Stored and computed gauges merge into one sorted section.
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return gaugeSortKey(snap.Gauges[i]) < gaugeSortKey(snap.Gauges[j])
	})
	for _, h := range hists {
		hs := h.inst.Snapshot()
		snap.Histograms = append(snap.Histograms, HistogramPoint{
			Name: h.name, Labels: labelMap(h.labels),
			Count: hs.Count, Mean: hs.Mean, Min: hs.Min, Max: hs.Max,
			P50: hs.P50, P95: hs.P95, P99: hs.P99, P999: hs.P999,
		})
	}
	return snap
}

func gaugeSortKey(p MetricPoint) string {
	labels := make([]Label, 0, len(p.Labels))
	for k, v := range p.Labels {
		labels = append(labels, Label{k, v})
	}
	return key(p.Name, sortLabels(labels))
}

func sortedKeys[T any](m map[string]*registeredMetric[T]) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
