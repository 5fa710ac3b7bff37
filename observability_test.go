package diffindex

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"diffindex/internal/metrics"
)

// TestMetricsTracePropagationSyncFull verifies the trace context rides a put
// end to end: a put against a sync-full-indexed table must record exactly
// the stage set {wal, memtable, index-rpc} — the WAL append and memtable
// insert of the base write plus the synchronous index maintenance — and
// nothing else (the local index applies deliberately do not re-add wal or
// memtable stages).
func TestMetricsTracePropagationSyncFull(t *testing.T) {
	db := openTestDB(t, 3)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", []string{"a"}, SyncFull, nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	if _, err := cl.Put("t", []byte("r1"), Cols{"a": []byte("v1")}); err != nil {
		t.Fatal(err)
	}

	want := []string{metrics.StageIndexRPC, metrics.StageMemtable, metrics.StageWAL}
	var puts int
	for _, op := range db.SlowOps() {
		if op.Op != "put" || op.Table != "t" {
			continue
		}
		puts++
		got := stageSet(op.Stages)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("sync-full put stages = %v, want %v", got, want)
		}
	}
	if puts == 0 {
		t.Fatal("no put in the slow-op log")
	}
}

// TestMetricsTraceAsyncDelivery verifies the async pipeline's observability:
// the put's own trace stops at the AUQ enqueue (the client-visible part),
// and the APS records the enqueue→durable latency after the fact into the
// aps-delivery stage histogram.
func TestMetricsTraceAsyncDelivery(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	if err := db.CreateIndex("t", []string{"a"}, AsyncSimple, nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	if _, err := cl.Put("t", []byte("r1"), Cols{"a": []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if !db.WaitForIndexes(10 * time.Second) {
		t.Fatal("index did not converge")
	}

	want := []string{metrics.StageAUQEnqueue, metrics.StageMemtable, metrics.StageWAL}
	var puts int
	for _, op := range db.SlowOps() {
		if op.Op != "put" || op.Table != "t" {
			continue
		}
		puts++
		got := stageSet(op.Stages)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("async put stages = %v, want %v", got, want)
		}
	}
	if puts == 0 {
		t.Fatal("no put in the slow-op log")
	}
	// The delivery latency is observable even though no trace outlives the
	// put: the APS records enqueue→durable per completed task.
	h := db.c.Metrics().Histogram("diffindex_stage_latency_ns",
		metrics.L("stage", metrics.StageAPSDeliver), metrics.L("table", "t"))
	if s := h.Snapshot(); s.Count < 1 {
		t.Errorf("aps-delivery count = %d, want >= 1", s.Count)
	}
}

func stageSet(stages []metrics.Stage) []string {
	seen := map[string]bool{}
	for _, s := range stages {
		seen[s.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSlowOpCarriesWALPosition checks that tracing's lazy notes still reach
// the slow-op log: an admitted put carries its stages and the position its
// WAL batch landed at, formatted as segment@offset.
func TestSlowOpCarriesWALPosition(t *testing.T) {
	db := openTestDB(t, 1)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	for i := 0; i < 3; i++ {
		if _, err := cl.Put("t", []byte("r1"), Cols{"a": []byte{byte('0' + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	walPos := regexp.MustCompile(`^[0-9]+@[0-9]+$`)
	var puts int
	for _, op := range db.SlowOps() {
		if op.Op != "put" || op.Table != "t" {
			continue
		}
		puts++
		if got := stageSet(op.Stages); strings.Join(got, ",") != metrics.StageMemtable+","+metrics.StageWAL {
			t.Errorf("put stages = %v, want [memtable wal]", got)
		}
		if p := op.Notes["wal_pos"]; !walPos.MatchString(p) {
			t.Errorf("put wal_pos note = %q, want segment@offset", p)
		}
	}
	if puts != 3 {
		t.Fatalf("%d puts in the slow-op log, want 3", puts)
	}
}

// TestMetricsLegacyViewsEquivalence pins the "one source of truth" contract:
// IOCounts and Staleness are views over the registry, so their numbers must
// equal what the registry reports for the same instruments.
func TestMetricsLegacyViewsEquivalence(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	if err := db.CreateIndex("t", []string{"a"}, AsyncSimple, nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	for i := 0; i < 32; i++ {
		if _, err := cl.Put("t", []byte{byte(i)}, Cols{"a": {byte(i % 7)}}); err != nil {
			t.Fatal(err)
		}
	}
	if !db.WaitForIndexes(10 * time.Second) {
		t.Fatal("index did not converge")
	}
	if _, err := cl.GetByIndex("t", []string{"a"}, []byte{3}); err != nil {
		t.Fatal(err)
	}

	reg := db.c.Metrics()
	io := db.IOCounts()
	for _, c := range []struct {
		op   string
		want int64
	}{
		{"base-put", io.BasePut}, {"base-read", io.BaseRead},
		{"index-put", io.IndexPut}, {"index-del", io.IndexDel},
		{"index-read", io.IndexRead}, {"async-base-read", io.AsyncBaseRead},
		{"async-index-put", io.AsyncIndexPut}, {"async-index-del", io.AsyncIndexDel},
	} {
		got, ok := reg.Value("diffindex_io_ops_total", metrics.L("op", c.op))
		if !ok || got != c.want {
			t.Errorf("io_ops{op=%s}: registry=%d ok=%v, IOCounts=%d", c.op, got, ok, c.want)
		}
	}

	st := db.Staleness()
	hs := reg.Histogram("diffindex_staleness_ns").Snapshot()
	if st.Count != hs.Count || st.P50 != hs.P50 || st.Max != hs.Max {
		t.Errorf("Staleness=%+v, registry histogram=%+v", st, hs)
	}
	if st.Count < 1 {
		t.Error("no staleness samples after async convergence")
	}
}

// TestMetricsHandlerHTTP exercises the expvar-style endpoint: /metrics
// returns the stable-JSON registry snapshot, /slowops the slow-op log.
func TestMetricsHandlerHTTP(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	cl := db.NewClient("c")
	if _, err := cl.Put("t", []byte("r"), Cols{"a": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap metrics.RegistrySnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not a RegistrySnapshot: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("empty snapshot over HTTP: %d counters, %d histograms", len(snap.Counters), len(snap.Histograms))
	}
	var slow []metrics.SlowOp
	if err := json.Unmarshal(get("/slowops"), &slow); err != nil {
		t.Fatalf("/slowops is not a []SlowOp: %v", err)
	}
	if len(slow) == 0 {
		t.Error("empty slow-op log over HTTP after a put")
	}
	if resp, err := http.Get(srv.URL + "/nonsense"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: err=%v status=%v", err, resp.StatusCode)
	}
}

// TestMetricsDumpStream checks StartMetricsDump emits parseable JSON lines
// with the unix_ns envelope and stops cleanly.
func TestMetricsDumpStream(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	var buf syncBuffer
	stop := db.StartMetricsDump(&buf, 10*time.Millisecond)
	time.Sleep(60 * time.Millisecond)
	stop()
	stop() // idempotent

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no dump lines")
	}
	var d struct {
		UnixNs  int64                    `json:"unix_ns"`
		Metrics metrics.RegistrySnapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("dump line is not a metricsDump: %v", err)
	}
	if d.UnixNs == 0 || len(d.Metrics.Counters) == 0 {
		t.Errorf("dump envelope incomplete: unix_ns=%d counters=%d", d.UnixNs, len(d.Metrics.Counters))
	}
}

// TestMetricsTracingDisabled checks the kill switch: no op histograms, no
// slow-op log entries, but stage histograms and counters still record.
func TestMetricsTracingDisabled(t *testing.T) {
	db := Open(Options{Servers: 3, DisableTracing: true})
	t.Cleanup(func() { db.Close() })
	db.CreateTable("t", nil)
	cl := db.NewClient("c")
	if _, err := cl.Put("t", []byte("r"), Cols{"a": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if ops := db.SlowOps(); len(ops) != 0 {
		t.Errorf("slow-op log has %d entries with tracing disabled", len(ops))
	}
	if _, ok := db.c.Metrics().Value("diffindex_io_ops_total", metrics.L("op", "base-put")); !ok {
		t.Error("counters stopped recording with tracing disabled")
	}
	h := db.c.Metrics().Histogram("diffindex_stage_latency_ns",
		metrics.L("stage", metrics.StageWAL), metrics.L("table", "t"))
	if s := h.Snapshot(); s.Count < 1 {
		t.Error("stage histograms stopped recording with tracing disabled")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the dumper goroutine writes
// concurrently with the test's read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
