package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
)

// ManagerOptions tunes the Diff-Index runtime.
type ManagerOptions struct {
	// QueueCapacity bounds each region's AUQ ("by assigning a large-size
	// AUQ the workload surge can be largely absorbed", §8.2). Defaults to
	// 4096.
	QueueCapacity int
	// Workers is the number of APS workers per region. Defaults to 2.
	Workers int
	// APSBatch bounds how many queued tasks one APS worker drains at once
	// (non-blocking after the first receive) and coalesces into
	// region-batched index applies — the micro-batching bound K. 1
	// disables batching. Defaults to 16.
	APSBatch int
	// MaxBacklog, when > 0, is the AUQ admission-control cap: a region's
	// pending asynchronous index work may not exceed it. An arrival that
	// would is SHED TO SYNC — its index maintenance runs inline on the
	// writer, degrading that put to the synchronous path. Shedding bounds
	// both the backlog and index staleness (an admitted entry never waits
	// behind more than MaxBacklog predecessors), trading write latency for
	// them exactly as the scheme table (Table 1) predicts. 0 disables the
	// cap: the queue blocks at QueueCapacity as before.
	MaxBacklog int
	// SessionTTL is the inactivity limit after which a session expires
	// (§5.2 uses 30 minutes). Defaults to 30 minutes.
	SessionTTL time.Duration
	// SessionMaxBytes caps a session's private-table memory; beyond it,
	// session consistency is automatically disabled (§5.2). Defaults to
	// 1 MiB.
	SessionMaxBytes int64
	// DisableDrainOnFlush turns OFF the drain-AUQ-before-flush protocol
	// (§5.3). Unsafe: after a flush truncates the WAL, pending AUQ entries
	// for flushed data cannot be reconstructed by replay, so a crash loses
	// index updates permanently. Exists only for the ablation experiment
	// demonstrating exactly that failure.
	DisableDrainOnFlush bool
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 4096
	}
	if o.MaxBacklog > 0 {
		// With admission control on, the channel IS the cap: admitted sends
		// (pending ≤ MaxBacklog) never block, while the shed path's
		// can't-apply-inline fallback and WAL-replay refill block at the cap
		// instead of growing the backlog past it — recovery gets
		// backpressure, not an exemption.
		o.QueueCapacity = o.MaxBacklog
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.APSBatch <= 0 {
		o.APSBatch = 16
	}
	if o.SessionTTL <= 0 {
		o.SessionTTL = 30 * time.Minute
	}
	if o.SessionMaxBytes <= 0 {
		o.SessionMaxBytes = 1 << 20
	}
	return o
}

// Manager is the Diff-Index runtime: it owns the catalog, the per-region
// AUQs, the per-server clients used for server-side index maintenance, and
// the operation counters. One Manager serves a whole cluster.
type Manager struct {
	cluster *cluster.Cluster
	catalog *Catalog
	opts    ManagerOptions

	// Counters instruments I/O along the axes of Table 2.
	Counters OpCounters

	// apsBatch records the size of every APS micro-batch one worker
	// drained and applied together.
	apsBatch *metrics.Histogram
	// reconcileCounters are the reconcile engine's counters, by source.
	reconcileCounters map[string]reconcileCounters
	// replayInflight counts replayed cells whose background re-dispatch
	// (OpenRegion's OnReplay loop) has not finished yet; QueueDepth includes
	// it so convergence waits cover work that is not yet back in an AUQ.
	replayInflight atomic.Int64

	// reg is the cluster-wide metrics registry; staleness and apsBatch are
	// registry-owned histograms, so Staleness and DB.MetricsSnapshot read
	// the same instrument.
	reg *metrics.Registry

	// stages and schemeStages resolve the stage-latency histograms by
	// (stage, table) and (stage, table, scheme) once per combination.
	stages, schemeStages *metrics.HistogramVec

	mu          sync.Mutex
	auqs        map[*cluster.Region]*auq
	serverConns map[string]*cluster.Client
	staleness   *metrics.Histogram
}

// NewManager creates the Diff-Index runtime for a cluster.
func NewManager(c *cluster.Cluster, opts ManagerOptions) *Manager {
	reg := c.Metrics()
	m := &Manager{
		cluster:           c,
		catalog:           NewCatalog(),
		opts:              opts.withDefaults(),
		reg:               reg,
		auqs:              make(map[*cluster.Region]*auq),
		serverConns:       make(map[string]*cluster.Client),
		Counters:          newOpCounters(reg),
		reconcileCounters: newReconcileCounters(reg),
		staleness:         reg.Histogram("diffindex_staleness_ns"),
		apsBatch:          reg.Histogram("diffindex_aps_batch_size"),
		stages:            reg.HistogramVec("diffindex_stage_latency_ns", "stage", "table"),
		schemeStages:      reg.HistogramVec("diffindex_stage_latency_ns", "stage", "table", "scheme"),
	}
	// A computed gauge over runtime state: it takes m.mu at read time, and
	// the registry evaluates it outside its own lock, so no lock-ordering
	// cycle.
	reg.RegisterGaugeFunc("diffindex_auq_depth", m.QueueDepth)
	return m
}

// stageHist returns the stage-latency histogram for a stage on a base table.
func (m *Manager) stageHist(stage, table string) *metrics.Histogram {
	return m.stages.With(stage, table)
}

// Catalog exposes the index metadata catalog.
func (m *Manager) Catalog() *Catalog { return m.catalog }

// CreateIndex defines an index. For a global index it creates the
// (key-only) index table, pre-split at the given index-key routing splits;
// for a local index (def.Local) no table is created — entries live inside
// each base region (splits are ignored). The base table must exist; rows
// already in it are indexed by a backfill scan, so an index can be added to
// a populated table (the paper's index-creation utility, §7).
func (m *Manager) CreateIndex(def IndexDef, splits [][]byte) error {
	if !m.cluster.Master.HasTable(def.Table) {
		return fmt.Errorf("core: base table %s does not exist", def.Table)
	}
	if err := m.catalog.Add(def); err != nil {
		return err
	}
	// One observer per base table handles every index on it.
	m.cluster.RegisterCoprocessor(def.Table, &observer{m: m})
	if !def.Local {
		// Index-table stores must never drop delete markers at compaction:
		// async delivery is at-least-once, and a redelivered stale-entry
		// insert stays masked only while its tombstone survives.
		m.cluster.RetainTombstones(def.Name())
		// Index tables are raw tables: their routing keys ARE their store
		// keys (v ⊕ k).
		if err := m.cluster.Master.CreateRawTable(def.Name(), splits); err != nil {
			m.catalog.Remove(def.Table, def.Name())
			return err
		}
	}
	// Backfill: the verify sweep's base-side enumeration — one MultiScan per
	// base region, each row's (value, row) pair derived from its scanned
	// cells — and the reconcile engine inserts the pairs the index lacks.
	cl := m.clientFor("diffindex-backfill")
	pairs, err := expectedPairs(cl, def)
	if err != nil {
		return err
	}
	_, err = m.reconcile(cl, def, srcBackfill, nil, pairs)
	return err
}

// DropIndex removes an index definition and forgets its metadata. The index
// table's regions remain until the table is dropped (our master has no table
// deletion, like early HBase required disable-then-drop; callers simply stop
// routing to it).
func (m *Manager) DropIndex(table, name string) bool {
	return m.catalog.Remove(table, name)
}

// clientFor returns (creating if needed) the cluster client whose simnet
// node is name — index maintenance issued on region server rs3 must pay
// rs3→indexserver network latency, so each server gets its own client.
func (m *Manager) clientFor(name string) *cluster.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	cl, ok := m.serverConns[name]
	if !ok {
		cl = cluster.NewClient(m.cluster, name)
		m.serverConns[name] = cl
	}
	return cl
}

// auqFor returns (creating if needed) the AUQ of a region. A straggler
// enqueue racing a region close (balancer move, decommission, merge) must
// not resurrect the killed queue: the work it carries is reconstructed by
// WAL replay at the region's new host, so it gets a dead stub that drops
// the task instead of a live queue no close will ever tear down.
func (m *Manager) auqFor(ctx cluster.RegionCtx) *auq {
	// The queue outlives the operation that created it: never retain the
	// originating operation's trace in the queue's context.
	ctx.Trace = nil
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.auqs[ctx.Region]
	if !ok {
		if ctx.Region.Store().Closed() {
			q = &auq{m: m, ctx: ctx}
			q.killed.Store(true)
			return q
		}
		q = newAUQ(m, ctx)
		m.auqs[ctx.Region] = q
	}
	return q
}

func (m *Manager) dropAUQ(region *cluster.Region) *auq {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.auqs[region]
	delete(m.auqs, region)
	return q
}

// QueueDepth sums pending AUQ tasks across all regions — zero means every
// asynchronous index update has been applied.
func (m *Manager) QueueDepth() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := m.replayInflight.Load()
	for _, q := range m.auqs {
		total += q.depth()
	}
	return total
}

// MaxRegionQueueDepth returns the largest single-region AUQ backlog — with
// admission control on (MaxBacklog > 0) it must never exceed the cap.
func (m *Manager) MaxRegionQueueDepth() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max int64
	for _, q := range m.auqs {
		if d := q.depth(); d > max {
			max = d
		}
	}
	return max
}

// WaitForConvergence blocks until the AUQs are empty or the timeout
// elapses, reporting whether convergence was reached.
func (m *Manager) WaitForConvergence(timeout time.Duration) bool {
	return cluster.WaitFor(timeout, func() bool { return m.QueueDepth() == 0 })
}

// observeStaleness records one AUQ completion's index-after-data time lag
// (T2 − T1, §8.2). Every completion is recorded; the paper samples 0.1% of
// inserted entries.
func (m *Manager) observeStaleness(enqueuedAt time.Time) {
	m.staleness.RecordDuration(time.Since(enqueuedAt))
}

// Staleness exposes the index-staleness histogram (Figure 11's measurement).
func (m *Manager) Staleness() *metrics.Histogram { return m.staleness }

// ResetStaleness zeroes the staleness histogram, for per-phase
// measurements. The histogram is registry-owned, so it is reset in place
// rather than replaced.
func (m *Manager) ResetStaleness() {
	m.staleness.Reset()
}

// covered reports whether the mutation in t can affect the index.
func covered(def IndexDef, t task) bool {
	return (t.putCols != nil && def.Covers(t.putCols)) || (t.delCols != nil && def.CoversNames(t.delCols))
}

// relevantIndexes selects the indexes a task must maintain on the APS path:
// asynchronous indexes it covers — or every covered index when the task is
// a replay/failure redelivery (t.allIndexes).
func (m *Manager) relevantIndexes(ctx cluster.RegionCtx, t task) []IndexDef {
	var relevant []IndexDef
	for _, def := range m.catalog.IndexesOn(ctx.Region.Info.Table) {
		if covered(def, t) && (t.allIndexes || (!def.Local && def.Scheme.Asynchronous())) {
			relevant = append(relevant, def)
		}
	}
	return relevant
}

// indexMutations holds the index cells computed for one or more base
// mutations, separated by destination: local-index cells live in the base
// region's own store; global cells are grouped per index table so each
// table's batch ships in one region-batched MultiApply.
type indexMutations struct {
	local  []kv.Cell
	global map[string][]kv.Cell
}

func (mu *indexMutations) empty() bool { return len(mu.local) == 0 && len(mu.global) == 0 }

// merge appends other's cells into mu (the APS micro-batch coalescing step).
func (mu *indexMutations) merge(other indexMutations) {
	mu.local = append(mu.local, other.local...)
	for table, cells := range other.global {
		if mu.global == nil {
			mu.global = make(map[string][]kv.Cell)
		}
		mu.global[table] = append(mu.global[table], cells...)
	}
}

// buildIndexMutations computes the index maintenance for one base mutation
// against the given indexes without performing any index-table I/O: the
// read-and-compute half of Algorithm 1 (sync-full, async=false) and
// Algorithm 4 (APS, async=true). It reads the row's pre-image at ts−δ once,
// then per index emits a delete of the superseded entry at ts−δ and an
// insert of the new entry at ts.
func (m *Manager) buildIndexMutations(ctx cluster.RegionCtx, t task, async bool, relevant []IndexDef) (indexMutations, error) {
	if len(relevant) == 0 {
		return indexMutations{}, nil
	}
	// R_B(k, t_new − δ): one local read of the row's pre-image (§4.1 SU3 /
	// Algorithm 4 BA2). Local because the observer/APS runs on the server
	// hosting the base region.
	oldCols, err := readPreImage(ctx.Region, t.row, t.ts-kv.Delta, relevant)
	if err != nil {
		return indexMutations{}, err
	}
	if async {
		m.Counters.AsyncBaseRead.Inc()
	} else {
		m.Counters.BaseRead.Inc()
	}
	return indexMutationsFrom(t, relevant, oldCols), nil
}

// readPreImage is R_B(k, ts) restricted to what the indexes need: the
// row's indexed columns as they stood at ts, one Store.MultiGet of the
// distinct columns of defs. A point read is bloom-filtered and skips tables
// whose key range excludes it, and copies one column's value — where a
// read of the whole row would merge every column of it from every table.
// Columns absent at ts are absent from the map.
func readPreImage(region *cluster.Region, row []byte, ts kv.Timestamp, defs []IndexDef) (map[string][]byte, error) {
	var cols []string
	var keys [][]byte
	for _, def := range defs {
		for _, col := range def.Columns {
			if !slices.Contains(cols, col) {
				cols = append(cols, col)
				keys = append(keys, kv.BaseKey(row, []byte(col)))
			}
		}
	}
	got := make([]lsm.GetResult, len(keys))
	if err := region.Store().MultiGet(keys, ts, got); err != nil {
		return nil, err
	}
	old := make(map[string][]byte, len(cols))
	for i, g := range got {
		if g.Found {
			old[cols[i]] = g.Cell.Value
		}
	}
	return old, nil
}

// indexMutationsFrom computes the index cells of mutation t against defs,
// given the pre-image oldCols of (at least) the columns defs index.
func indexMutationsFrom(t task, defs []IndexDef, oldCols map[string][]byte) indexMutations {
	// The row's post-image: pre-image overlaid with this mutation.
	newCols := make(map[string][]byte, len(oldCols)+len(t.putCols))
	for c, v := range oldCols {
		newCols[c] = v
	}
	for c, v := range t.putCols {
		newCols[c] = v
	}
	for _, c := range t.delCols {
		delete(newCols, c)
	}

	var muts indexMutations
	emit := func(def IndexDef, v []byte, cell kv.Cell) {
		if def.Local {
			cell.Key = kv.LocalIndexKey(def.Name(), v, t.row)
			muts.local = append(muts.local, cell)
			return
		}
		cell.Key = kv.IndexKey(v, t.row)
		if muts.global == nil {
			muts.global = make(map[string][]kv.Cell)
		}
		muts.global[def.Name()] = append(muts.global[def.Name()], cell)
	}
	for _, def := range defs {
		oldVal, hadOld := indexValue(def, oldCols)
		newVal, hasNew := indexValue(def, newCols)

		// D_I(v_old ⊕ k, t_new − δ): remove the superseded entry. The δ
		// ensures we never delete the entry just inserted at t_new when
		// v_old == v_new (§4.3) — and when values are equal we skip the
		// delete entirely, as nothing is superseded.
		if hadOld && (!hasNew || !bytes.Equal(oldVal, newVal)) {
			emit(def, oldVal, kv.Cell{Ts: t.ts - kv.Delta, Kind: kv.KindDelete})
		}
		// P_I(v_new ⊕ k, t_new): insert the new key-only entry with the
		// base entry's timestamp (§4.3's same-timestamp rule).
		if hasNew {
			emit(def, newVal, kv.Cell{Ts: t.ts, Kind: kv.KindPut})
		}
	}
	return muts
}

// applyMutations ships computed index cells. Global entries go through the
// calling server's client as ONE MultiApply per index table — one RPC per
// destination region instead of one per cell. Local entries live in THIS
// region's own store and are written gate-free in one batch via
// ApplyBatchLocked: acquiring the write gate here would deadlock, and
// ordering with flushes is already guaranteed — the synchronous path runs
// inside the put pipeline (gate held by the caller), and the APS path runs
// from this region's own AUQ, which a flush drains to completion before
// swapping the memtable.
func (m *Manager) applyMutations(ctx cluster.RegionCtx, async bool, muts indexMutations) error {
	var firstErr error
	if len(muts.local) > 0 {
		// Local cells are the row region's own writes: attribute them to the
		// index-local stage rather than re-counting their wal/memtable time
		// on the operation's trace.
		localStart := time.Now()
		if err := ctx.Region.Store().ApplyBatchLocked(muts.local, nil); err != nil {
			firstErr = err
		} else {
			m.countIndexCells(muts.local, async)
		}
		d := time.Since(localStart)
		m.stageHist(metrics.StageIndexLocal, ctx.Region.Info.Table).RecordDuration(d)
		ctx.Trace.AddStage(metrics.StageIndexLocal, d)
	}
	if len(muts.global) > 0 {
		conn := m.clientFor(ctx.Server.ID())
		for table, cells := range muts.global {
			if err := conn.MultiApply(table, cells); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			m.countIndexCells(cells, async)
		}
	}
	return firstErr
}

// countIndexCells bumps the Table 2 counters for durably applied index cells.
func (m *Manager) countIndexCells(cells []kv.Cell, async bool) {
	var puts, dels int64
	for _, c := range cells {
		if c.Kind == kv.KindDelete {
			dels++
		} else {
			puts++
		}
	}
	if async {
		m.Counters.AsyncIndexPut.Add(puts)
		m.Counters.AsyncIndexDel.Add(dels)
	} else {
		m.Counters.IndexPut.Add(puts)
		m.Counters.IndexDel.Add(dels)
	}
}

// applyIndexUpdatesFor performs index maintenance for one base mutation
// against the given indexes: compute the cells, then ship them batched.
func (m *Manager) applyIndexUpdatesFor(ctx cluster.RegionCtx, t task, async bool, relevant []IndexDef) error {
	muts, err := m.buildIndexMutations(ctx, t, async, relevant)
	if err != nil {
		return err
	}
	return m.applyMutations(ctx, async, muts)
}

// applyIndexBatch performs one attempt at the micro-batched Algorithm 4: it
// builds the mutations of every task in the batch, coalesces them by
// destination index table, and ships each table's cells in one MultiApply.
// It returns nil only when EVERY task's cells are durable — the caller may
// then mark all of them complete, preserving the drain-before-flush
// invariant (a task's pending count drops only after its work is durable).
//
// A task whose pre-image read falls below the region's GC horizon is
// retired with nothing applied. Only a task replayed from a WAL suffix that
// a failed truncation left behind can read there: its cell was flushed,
// and the flush's drain already delivered it (DESIGN.md §13). Retrying it
// would never succeed, and reading its pre-image as absent would act on a
// guess where the store says the answer is gone.
func (m *Manager) applyIndexBatch(ctx cluster.RegionCtx, batch []task) error {
	var all indexMutations
	for _, t := range batch {
		muts, err := m.buildIndexMutations(ctx, t, true, m.relevantIndexes(ctx, t))
		if errors.Is(err, lsm.ErrHistoryTrimmed) {
			continue
		}
		if err != nil {
			return err
		}
		all.merge(muts)
	}
	if all.empty() {
		return nil
	}
	return m.applyMutations(ctx, true, all)
}
