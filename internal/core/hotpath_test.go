package core

import (
	"fmt"
	"testing"
	"time"

	"diffindex/internal/metrics"
)

// applyCounts reads the cluster's Apply fan-out counters: RPCs delivered to
// region servers and the cells they carried.
func applyCounts(e *env) (rpcs, cells int64) {
	rpcs, _ = e.c.Metrics().Value("diffindex_apply_rpcs_total")
	cells, _ = e.c.Metrics().Value("diffindex_apply_cells_total")
	return rpcs, cells
}

// TestSyncFullRPCBatching counter-verifies the tentpole claim: a sync-full
// update that changes an indexed value performs its index maintenance (one
// delete of the superseded entry + one insert of the new one) with ONE
// Apply RPC per destination index region — not one RPC per index cell.
func TestSyncFullRPCBatching(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncFull, "title") // single-region index table

	e.put(t, "item001", "title", "alpha")
	rpcs0, cells0 := applyCounts(e)

	// A value-changing update: delete of ⟨alpha⊕item001⟩ + insert of
	// ⟨beta⊕item001⟩, both destined for the index table's only region.
	e.put(t, "item001", "title", "beta")
	rpcs, cells := applyCounts(e)
	if got := cells - cells0; got != 2 {
		t.Errorf("cells shipped by the update = %d, want 2 (delete + insert)", got)
	}
	if got := rpcs - rpcs0; got != 1 {
		t.Errorf("Apply RPCs issued by the update = %d, want 1 (one per destination region)", got)
	}
}

// TestSyncFullRPCPerRegion is the multi-region variant: when the superseded
// and new index entries route to different index regions, the batch
// degrades gracefully to one RPC per region — never more.
func TestSyncFullRPCPerRegion(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := IndexDef{Table: e.tbl, Columns: []string{"title"}, Scheme: SyncFull}
	// Index table split at "m": values < m and ≥ m live in different regions.
	if err := e.m.CreateIndex(def, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}

	e.put(t, "item001", "title", "alpha")
	rpcs0, _ := applyCounts(e)

	// alpha (region 1) superseded by zeta (region 2): two destinations.
	e.put(t, "item001", "title", "zeta")
	rpcs, _ := applyCounts(e)
	if got := rpcs - rpcs0; got != 2 {
		t.Errorf("Apply RPCs = %d, want 2 (entries span two index regions)", got)
	}
}

// TestAPSMicroBatching backs the AUQ up behind a partition so the single
// APS worker finds a deep queue when the network heals, then checks that
// (a) the index converges to the correct state and (b) the batch-size
// histogram shows the worker coalesced multiple tasks per drain.
func TestAPSMicroBatching(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{Workers: 1, APSBatch: 8})
	def := e.createIndex(t, AsyncSimple, "title")

	// A region's APS client is named after its hosting server, so writing
	// rows to a base region hosted AWAY from the index region and
	// partitioning the two servers stalls the worker while the queue fills.
	// The items table has two regions (split at item500) on different
	// servers; pick whichever one is remote from the index region.
	idxRegions, err := e.c.Master.RegionsOf(def.Name())
	if err != nil {
		t.Fatal(err)
	}
	prefix := "item0%02d" // rows item000.. (first region)
	baseRI, err := e.c.Master.Locate(e.tbl, []byte("item000"))
	if err != nil {
		t.Fatal(err)
	}
	if baseRI.Server == idxRegions[0].Server {
		prefix = "item9%02d" // rows item900.. (second region)
		if baseRI, err = e.c.Master.Locate(e.tbl, []byte("item900")); err != nil {
			t.Fatal(err)
		}
	}
	remote := baseRI.Server != idxRegions[0].Server
	if remote {
		e.c.Net.Partition(baseRI.Server, idxRegions[0].Server)
	}

	const n = 48
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf(prefix, i), "title", fmt.Sprintf("v%03d", i))
	}
	if remote {
		e.c.Net.HealAll()
	}
	if !e.m.WaitForConvergence(10 * time.Second) {
		t.Fatal("AUQ did not converge")
	}

	for i := 0; i < n; i++ {
		rows := e.lookupRows(t, []string{"title"}, fmt.Sprintf("v%03d", i))
		if len(rows) != 1 || rows[0] != fmt.Sprintf(prefix, i) {
			t.Fatalf("v%03d → %v, want [%s]", i, rows, fmt.Sprintf(prefix, i))
		}
	}

	h := e.c.Metrics().Histogram("diffindex_aps_batch_size")
	t.Logf("remote=%v batches=%d mean=%.1f max=%d", remote, h.Count(), h.Mean(), h.Max())
	if h.Count() == 0 {
		t.Fatal("no APS batches recorded")
	}
	if remote {
		// ≥47 tasks were queued when the worker unblocked; with APSBatch=8
		// it must have drained them in far fewer than n batches.
		if h.Count() >= int64(n) {
			t.Errorf("batches = %d for %d tasks: no coalescing happened", h.Count(), n)
		}
		if h.Max() < 2 {
			t.Errorf("max batch size = %d, want ≥ 2", h.Max())
		}
		if h.Max() > int64(e.m.opts.APSBatch) {
			t.Errorf("max batch size = %d exceeds APSBatch bound %d", h.Max(), e.m.opts.APSBatch)
		}
	}
}

// TestFlushDuringBatchedAPSDrain exercises the drain-before-flush protocol
// while batched APS work is mid-flight: a burst of async updates is
// enqueued, and a flush starts immediately — its pre-flush hook must wait
// for every drained micro-batch to become durable before the memtable
// swaps. After the flush, the region's queue must be empty (PR(Flushed) =
// ∅) and the index complete.
func TestFlushDuringBatchedAPSDrain(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{Workers: 2, APSBatch: 8})
	e.createIndex(t, AsyncSimple, "title")

	const n = 48
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("t%03d", i))
	}
	// Flush every region of the base table while the APS is (very likely)
	// still mid-drain; the pre-flush hook blocks until the batches land.
	regions, err := e.c.Master.RegionsOf(e.tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range regions {
		if err := e.c.Server(ri.Server).Flush(ri.ID); err != nil {
			t.Fatal(err)
		}
	}
	if depth := e.m.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth after flush = %d, want 0 (drain-before-flush)", depth)
	}
	for i := 0; i < n; i++ {
		rows := e.lookupRows(t, []string{"title"}, fmt.Sprintf("t%03d", i))
		if len(rows) != 1 || rows[0] != fmt.Sprintf("item%03d", i) {
			t.Fatalf("t%03d → %v after flush", i, rows)
		}
	}
}

// TestBackfillUsesBatchedRPCs checks that creating an index over existing
// rows ships the backfill entries region-batched: far fewer Apply RPCs than
// index cells.
func TestBackfillUsesBatchedRPCs(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	const n = 40
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("t%03d", i))
	}
	rpcs0, cells0 := applyCounts(e)
	def := e.createIndex(t, SyncFull, "title")
	rpcs, cells := applyCounts(e)
	if got := cells - cells0; got != n {
		t.Errorf("backfill cells = %d, want %d", got, n)
	}
	if got := rpcs - rpcs0; got >= n/2 {
		t.Errorf("backfill RPCs = %d for %d cells: not batched", got, n)
	}
	if entries := e.rawIndexEntries(t, def); len(entries) != n {
		t.Errorf("index entries after backfill = %d, want %d", len(entries), n)
	}
}

// TestCacheStatsRollup sanity-checks the per-server block-cache stats
// accessor feeding the diffindex_block_cache_{hits,misses} gauges.
func TestCacheStatsRollup(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.put(t, "item001", "title", "alpha")
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Two disk-backed reads: the second must hit the block cache.
	for i := 0; i < 2; i++ {
		if _, _, ok, err := e.cl.Get(e.tbl, []byte("item001"), "title"); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
	var hits, misses int64
	for _, id := range e.c.ServerIDs() {
		h, m := e.c.Server(id).CacheStats()
		hits += h
		misses += m
	}
	if misses == 0 || hits == 0 {
		t.Errorf("cache stats hits=%d misses=%d, want both > 0", hits, misses)
	}
}

// TestStageHistHitAllocs guards the read and write paths' stage recording:
// once a (stage, table[, scheme]) histogram is resolved, recording into it
// does no registry lookup and allocates nothing, and it is the instrument
// the registry reports under those labels.
func TestStageHistHitAllocs(t *testing.T) {
	e := newEnv(t, 1, ManagerOptions{})
	h := e.m.stageHist(metrics.StageIndexScan, e.tbl)
	if want := e.c.Metrics().Histogram("diffindex_stage_latency_ns",
		metrics.L("stage", metrics.StageIndexScan), metrics.L("table", e.tbl)); h != want {
		t.Fatal("stageHist resolved a different instrument than the registry")
	}
	hs := e.m.schemeStages.With(metrics.StageIndexRPC, e.tbl, SyncInsert.String())
	if want := e.c.Metrics().Histogram("diffindex_stage_latency_ns", metrics.L("stage", metrics.StageIndexRPC),
		metrics.L("table", e.tbl), metrics.L("scheme", "sync-insert")); hs != want {
		t.Fatal("schemeStages resolved a different instrument than the registry")
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.m.stageHist(metrics.StageIndexScan, e.tbl).Record(1)
		e.m.schemeStages.With(metrics.StageIndexRPC, e.tbl, SyncInsert.String()).Record(1)
	})
	if allocs != 0 {
		t.Fatalf("stage histogram hit = %v allocs, want 0", allocs)
	}
}
