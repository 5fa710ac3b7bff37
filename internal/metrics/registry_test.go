package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestMetricsRegistryLookup verifies lookup-or-create semantics: same
// name+labels share one instrument regardless of label order; different
// labels do not.
func TestMetricsRegistryLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", L("table", "t1"), L("op", "put"))
	b := r.Counter("c", L("op", "put"), L("table", "t1"))
	if a != b {
		t.Fatal("label order changed the counter identity")
	}
	c := r.Counter("c", L("op", "put"), L("table", "t2"))
	if a == c {
		t.Fatal("different labels resolved to the same counter")
	}
	a.Add(3)
	if v, ok := r.Value("c", L("table", "t1"), L("op", "put")); !ok || v != 3 {
		t.Fatalf("Value = %d, %v; want 3, true", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value found a metric that was never registered")
	}

	h1 := r.Histogram("h", L("stage", "wal"))
	h2 := r.Histogram("h", L("stage", "wal"))
	if h1 != h2 {
		t.Fatal("histogram lookup did not dedupe")
	}
}

// TestMetricsRegistryGaugeFunc verifies computed gauges are evaluated at
// read time and appear in snapshots alongside stored gauges.
func TestMetricsRegistryGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := int64(0)
	r.RegisterGaugeFunc("depth", func() int64 { return depth })
	if v, ok := r.Value("depth"); !ok || v != 0 {
		t.Fatalf("Value = %d, %v; want 0, true", v, ok)
	}
	depth = 42
	if v, _ := r.Value("depth"); v != 42 {
		t.Fatalf("gauge func not re-evaluated: got %d", v)
	}
	r.Gauge("stored").Set(7)
	snap := r.Snapshot()
	if len(snap.Gauges) != 2 {
		t.Fatalf("snapshot gauges = %d, want 2 (stored + computed)", len(snap.Gauges))
	}
}

// TestMetricsSnapshotStableJSON is the golden-file guard: a registry built
// from fixed, deterministic values must marshal to byte-identical JSON run
// after run (stable ordering, stable field set). Refresh with
// `go test ./internal/metrics -run Golden -update-golden`.
func TestMetricsSnapshotStableJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("diffindex_io_ops_total", L("op", "base-put")).Add(10)
	r.Counter("diffindex_io_ops_total", L("op", "index-put")).Add(4)
	r.Counter("diffindex_wal_appends_total", L("table", "items")).Add(12)
	r.Gauge("diffindex_auq_depth").Set(3)
	r.RegisterGaugeFunc("diffindex_block_cache_hits", func() int64 { return 99 }, L("server", "rs1"))
	h := r.Histogram("diffindex_op_latency_ns", L("op", "put"), L("table", "items"))
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	st := r.Histogram("diffindex_stage_latency_ns", L("stage", "wal"), L("table", "items"))
	st.Record(2048)
	st.Record(4096)
	// The integrity surface: scrub, anti-entropy and reconcile counters,
	// exactly as the scrubber and VerifyIndexes emit them.
	r.Counter("diffindex_scrub_blocks_total", L("table", "items")).Add(128)
	r.Counter("diffindex_scrub_bytes_total", L("table", "items")).Add(524288)
	r.Counter("diffindex_scrub_corruptions_total", L("table", "items")).Add(1)
	r.Counter("diffindex_scrub_cycles_total", L("table", "items")).Add(2)
	r.Counter("diffindex_antientropy_sweeps_total", L("table", "items")).Add(3)
	r.Counter("diffindex_antientropy_buckets_total", L("result", "clean")).Add(190)
	r.Counter("diffindex_antientropy_buckets_total", L("result", "divergent")).Add(2)
	for _, kind := range []string{"missing", "stale"} {
		r.Counter("diffindex_reconcile_checked_total", L("source", "verify"), L("kind", kind)).Add(2)
		r.Counter("diffindex_reconcile_confirmed_total", L("source", "verify"), L("kind", kind)).Add(1)
		r.Counter("diffindex_reconcile_repaired_total", L("source", "verify"), L("kind", kind)).Add(1)
	}

	got, err := r.Snapshot().MarshalStableJSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	const golden = "testdata/registry_snapshot.golden.json"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot JSON drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The encoding must also round-trip as JSON.
	var decoded RegistrySnapshot
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(decoded.Histograms) != 2 {
		t.Fatalf("round-trip lost histograms: %d", len(decoded.Histograms))
	}
}

// TestMetricsHistogramSnapshotRace exercises the weak-consistency contract
// of Histogram.Snapshot under concurrent recording (run under -race): the
// invariants that must hold in every snapshot, no matter the interleaving.
func TestMetricsHistogramSnapshotRace(t *testing.T) {
	h := NewHistogram()
	const (
		writers = 4
		perW    = 20000
		maxV    = int64(1_000_000)
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			v := seed
			for i := 0; i < perW; i++ {
				v = (v*1103515245 + 12345) % maxV
				h.Record(v)
			}
		}(int64(w + 1))
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count == 0 {
				continue
			}
			if s.Min == math.MaxInt64 {
				t.Error("snapshot leaked the empty-min sentinel")
				return
			}
			if s.Min > s.Max {
				t.Errorf("Min %d > Max %d", s.Min, s.Max)
				return
			}
			if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.P999 {
				t.Errorf("quantiles not monotone: %d %d %d %d", s.P50, s.P95, s.P99, s.P999)
				return
			}
			if s.P999 > s.Max {
				t.Errorf("P999 %d > Max %d", s.P999, s.Max)
				return
			}
			if s.Mean < float64(s.Min) || s.Mean > float64(s.Max) {
				t.Errorf("Mean %f outside [%d, %d]", s.Mean, s.Min, s.Max)
				return
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	final := h.Snapshot()
	if want := int64(writers * perW); final.Count != want {
		t.Fatalf("final Count = %d, want %d", final.Count, want)
	}
}

// TestMetricsHistogramReset verifies Reset returns the histogram to its
// empty state.
func TestMetricsHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Record(200)
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Max != 0 || s.Min != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
	h.Record(50)
	s = h.Snapshot()
	if s.Count != 1 || s.Min != 50 {
		t.Fatalf("record after Reset: %+v", s)
	}
}

// TestMetricsSlowOpLog verifies top-K retention and ordering.
func TestMetricsSlowOpLog(t *testing.T) {
	l := NewSlowOpLog(3)
	for i := 1; i <= 10; i++ {
		l.Offer(SlowOp{Op: "put", Total: time.Duration(i) * time.Millisecond})
	}
	ops := l.Snapshot()
	if len(ops) != 3 {
		t.Fatalf("retained %d ops, want 3", len(ops))
	}
	want := []time.Duration{10 * time.Millisecond, 9 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if ops[i].Total != w {
			t.Fatalf("ops[%d].Total = %v, want %v", i, ops[i].Total, w)
		}
	}
	// A fast op must be rejected by the atomic threshold without changing
	// the log.
	l.Offer(SlowOp{Op: "put", Total: time.Millisecond})
	if got := l.Snapshot(); got[2].Total != 8*time.Millisecond {
		t.Fatalf("fast op displaced a slow one: %v", got)
	}
}

// TestMetricsTracerDisabled verifies the disabled tracer is a full no-op.
func TestMetricsTracerDisabled(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8, true)
	tc := tr.Start("put", "items")
	if tc != nil {
		t.Fatal("disabled tracer returned a live trace")
	}
	tc.AddStage(StageWAL, time.Millisecond) // must not panic on nil
	end := tc.StartStage(StageMemtable)
	end()
	tr.Finish(tc)
	if len(tr.SlowOps()) != 0 {
		t.Fatal("disabled tracer recorded slow ops")
	}
	if len(reg.Snapshot().Histograms) != 0 {
		t.Fatal("disabled tracer recorded histograms")
	}
}

// TestMetricsTracerFinish verifies Finish records the op histogram and the
// slow-op log with the trace's stages.
func TestMetricsTracerFinish(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8, false)
	tc := tr.Start("put", "items")
	tc.AddStage(StageWAL, 2*time.Millisecond)
	tc.AddStage(StageMemtable, time.Millisecond)
	tr.Finish(tc)

	h := reg.Histogram("diffindex_op_latency_ns", L("op", "put"), L("table", "items"))
	if h.Count() != 1 {
		t.Fatalf("op histogram count = %d, want 1", h.Count())
	}
	ops := tr.SlowOps()
	if len(ops) != 1 || len(ops[0].Stages) != 2 {
		t.Fatalf("slow ops = %+v", ops)
	}
	if ops[0].Stages[0].Name != StageWAL {
		t.Fatalf("stage order not preserved: %+v", ops[0].Stages)
	}
}
