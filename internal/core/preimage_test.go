package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
)

// regionCapture is the table's observer, plus a record of the region
// context of every put and flush it sees, so a test can reach a region's
// store.
type regionCapture struct {
	*observer
	mu   sync.Mutex
	ctxs map[string]cluster.RegionCtx // by region ID
}

func (c *regionCapture) record(ctx cluster.RegionCtx) {
	c.mu.Lock()
	ctx.Trace = nil
	c.ctxs[ctx.Region.Info.ID] = ctx
	c.mu.Unlock()
}

func (c *regionCapture) PostMutate(ctx cluster.RegionCtx, row []byte, m cluster.Mutation, ts kv.Timestamp) {
	c.record(ctx)
	c.observer.PostMutate(ctx, row, m, ts)
}

func (c *regionCapture) PreFlush(ctx cluster.RegionCtx) error {
	c.record(ctx)
	return c.observer.PreFlush(ctx)
}

// captureRegions wraps the base table's observer; call it after the last
// CreateIndex, which registers the plain observer again.
func (e *env) captureRegions() *regionCapture {
	c := &regionCapture{observer: &observer{m: e.m}, ctxs: map[string]cluster.RegionCtx{}}
	e.c.RegisterCoprocessor(e.tbl, c)
	return c
}

// regionOf returns the context of the base region holding row, which a put
// to that region must already have passed through.
func (c *regionCapture) regionOf(t *testing.T, e *env, row string) cluster.RegionCtx {
	t.Helper()
	ri, err := e.c.Master.Locate(e.tbl, []byte(row))
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, ok := c.ctxs[ri.ID]
	if !ok {
		t.Fatalf("no put has reached region %s yet", ri.ID)
	}
	return ctx
}

// TestSyncFullPreImageIsPointReads: one sync-full put on a base region with
// several flushed tables reads its pre-image with exactly one Store.Get per
// indexed column and no Store.Scan — Table 2's one base read, as point reads.
func TestSyncFullPreImageIsPointReads(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncFull, "title")
	e.createIndex(t, SyncFull, "title", "price") // two distinct columns in all
	capture := e.captureRegions()
	ri, err := e.c.Master.Locate(e.tbl, []byte("item001"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.cl.Put(e.tbl, []byte("item001"), map[string][]byte{
			"title": []byte(fmt.Sprintf("t%d", i)), "price": []byte(fmt.Sprintf("%d", i)), "note": []byte("n"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.c.Server(ri.Server).Flush(ri.ID); err != nil {
			t.Fatal(err)
		}
	}
	store := capture.regionOf(t, e, "item001").Region.Store()
	if n := store.TableCount(); n < 2 {
		t.Fatalf("base region has %d tables, want several", n)
	}

	// The store's stage histograms take one sample per point-read key and
	// per scan. The base table's regions share them; only item001's region
	// serves this put.
	reads := func() (gets, scans int64) {
		stage := func(name string) int64 {
			return e.c.Metrics().Histogram("diffindex_stage_latency_ns", metrics.L("stage", name), metrics.L("table", e.tbl)).Count()
		}
		return stage(metrics.StageStoreGet), stage(metrics.StageStoreScan)
	}
	gets0, scans0 := reads()
	counters := e.m.Counters.Snapshot()
	e.put(t, "item001", "title", "t9")
	gets, scans := reads()
	d := e.m.Counters.Snapshot().Sub(counters)
	if scans != scans0 {
		t.Errorf("put did %d Store.Scan calls on the base region, want 0", scans-scans0)
	}
	if gets-gets0 != 2 {
		t.Errorf("put did %d Store.Get calls on the base region, want 2 (title, price)", gets-gets0)
	}
	if d.BaseRead != 1 {
		t.Errorf("Table 2 base reads = %d, want 1", d.BaseRead)
	}
}

// TestPreImagePointReadsMatchRowRead drives seeded histories of full-row
// puts, partial puts, overwrites and deletes of indexed columns, whole-row
// deletes, flushes and compactions against one single-column index, one
// composite index, or two indexes. After every step it builds the index
// mutations of hypothetical puts and deletes at the current time and at
// earlier timestamps two ways — from the point-read pre-image, and from a
// whole-row read restricted to the indexed columns — and requires the cells
// to be identical. A background compaction between the two reads may raise
// the GC horizon past an earlier timestamp: the second read may then refuse
// with ErrHistoryTrimmed, but neither read may answer differently, a
// refused first read stays refused, and the probe at the current time is
// never refused. Each seed must compare at least one exact pair at an
// earlier timestamp, so the test cannot pass by refusing every old read.
func TestPreImagePointReadsMatchRowRead(t *testing.T) {
	for _, layout := range []struct {
		name    string
		indexes [][]string
	}{
		{"single", [][]string{{"title"}}},
		{"composite", [][]string{{"title", "price"}}},
		{"two", [][]string{{"title"}, {"price"}}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkPreImageHistory(t, layout.indexes, seed)
			}
		})
	}
}

func checkPreImageHistory(t *testing.T, indexes [][]string, seed int64) {
	e := newEnv(t, 2, ManagerOptions{})
	var defs []IndexDef
	for _, cols := range indexes {
		defs = append(defs, e.createIndex(t, SyncFull, cols...))
	}
	capture := e.captureRegions()
	rng := rand.New(rand.NewSource(seed))
	rows := []string{"item001", "item002", "item003"} // one base region
	cols := []string{"title", "price", "note"}
	value := func() []byte { return []byte(fmt.Sprintf("v%d", rng.Intn(4))) }
	put := func(row string, vals map[string][]byte) kv.Timestamp {
		ts, err := e.cl.Put(e.tbl, []byte(row), vals)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	del := func(row string, cols []string) kv.Timestamp {
		ts, err := e.cl.Delete(e.tbl, []byte(row), cols)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	stamps := []kv.Timestamp{put(rows[0], map[string][]byte{"title": value()})}
	ctx := capture.regionOf(t, e, rows[0])
	store := ctx.Region.Store()
	exact := 0
	for step := 0; step < 40; step++ {
		row := rows[rng.Intn(len(rows))]
		switch op := rng.Intn(9); op {
		case 0, 1: // full-row put
			stamps = append(stamps, put(row, map[string][]byte{"title": value(), "price": value(), "note": value()}))
		case 2: // partial put of any one column
			stamps = append(stamps, put(row, map[string][]byte{cols[rng.Intn(len(cols))]: value()}))
		case 3: // overwrite an indexed column
			stamps = append(stamps, put(row, map[string][]byte{cols[rng.Intn(2)]: value()}))
		case 4: // delete an indexed column
			stamps = append(stamps, del(row, []string{cols[rng.Intn(2)]}))
		case 5: // delete the whole row
			stamps = append(stamps, del(row, nil))
		case 6:
			if err := store.Flush(); err != nil {
				t.Fatal(err)
			}
		case 7:
			if _, err := store.CompactOnce(); err != nil {
				t.Fatal(err)
			}
		case 8:
			if err := store.Compact(); err != nil {
				t.Fatal(err)
			}
		}

		// The pre-image just before "now" and just before a few earlier
		// mutations (what a redelivered APS task reads).
		probes := []kv.Timestamp{stamps[len(stamps)-1] + 1}
		for i := 0; i < 3; i++ {
			probes = append(probes, stamps[rng.Intn(len(stamps))])
		}
		for _, row := range rows {
			for _, ts := range probes {
				for _, tk := range []task{
					{row: []byte(row), ts: ts, putCols: map[string][]byte{"title": value()}},
					{row: []byte(row), ts: ts, putCols: map[string][]byte{"price": value(), "note": value()}},
					{row: []byte(row), ts: ts, delCols: []string{"title"}},
					{row: []byte(row), ts: ts, delCols: cols},
				} {
					now := ts == probes[0]
					got, err := e.m.buildIndexMutations(ctx, tk, false, defs)
					whole, werr := ctx.Region.LocalGetRow(tk.row, tk.ts-kv.Delta)
					if trimmed := errors.Is(err, lsm.ErrHistoryTrimmed); trimmed && !now && errors.Is(werr, lsm.ErrHistoryTrimmed) {
						continue // refused twice: the horizon passed ts−δ
					} else if trimmed {
						t.Fatalf("seed %d step %d, %s at %d: point reads refused, row read %v", seed, step, row, ts, werr)
					}
					if err != nil {
						t.Fatal(err)
					}
					if errors.Is(werr, lsm.ErrHistoryTrimmed) && !now {
						continue // a compaction between the reads raised the horizon
					}
					if werr != nil {
						t.Fatal(werr)
					}
					indexed := map[string][]byte{}
					for _, def := range defs {
						for _, c := range def.Columns {
							if v, ok := whole[c]; ok {
								indexed[c] = v
							}
						}
					}
					if want := indexMutationsFrom(tk, defs, indexed); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d, %s at %d, task %+v:\npoint reads: %+v\nrow read:    %+v",
							seed, step, row, ts, tk, got, want)
					}
					if !now {
						exact++
					}
				}
			}
		}
	}
	if exact == 0 {
		t.Fatalf("seed %d: no probe at an earlier timestamp compared an exact pair", seed)
	}
}

// TestAPSRetiresTaskBelowHorizon pins the APS's one refused reader: a task
// replayed from a WAL suffix that a failed truncation left behind, whose
// cell was flushed, delivered by that flush's drain, and compacted below
// the GC horizon since. Its pre-image read is refused. The APS must retire
// it with nothing applied: no retry loop (the queue converges), and no
// guess at the pre-image (no index cell is written, the index is as the
// first delivery left it).
func TestAPSRetiresTaskBelowHorizon(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	def := e.createIndex(t, AsyncSimple, "title")
	capture := e.captureRegions()
	ts1 := e.put(t, "item001", "title", "a")
	e.put(t, "item001", "title", "b")
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("index did not converge")
	}
	ctx := capture.regionOf(t, e, "item001")
	store := ctx.Region.Store()
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	e.put(t, "item002", "title", "c")
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("index did not converge")
	}
	if h := store.Horizon(); h < ts1 {
		t.Fatalf("horizon %d is below the replayed task's ts−δ %d", h, ts1-kv.Delta)
	}
	before := e.rawIndexEntries(t, def)
	counters := e.m.Counters.Snapshot()

	replayed := task{row: []byte("item001"), ts: ts1, putCols: map[string][]byte{"title": []byte("a")}, allIndexes: true}
	if err := e.m.applyIndexBatch(ctx, []task{replayed}); err != nil {
		t.Fatalf("applyIndexBatch(refused task) = %v, want it retired", err)
	}
	e.m.auqFor(ctx).enqueue(replayed)
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("the queue never retired the refused task")
	}
	if d := e.m.Counters.Snapshot().Sub(counters); d != (Snapshot{}) {
		t.Errorf("a refused task moved the index counters: %+v", d)
	}
	if after := e.rawIndexEntries(t, def); !reflect.DeepEqual(after, before) {
		t.Errorf("index after the refused task = %v, want %v", after, before)
	}
}
