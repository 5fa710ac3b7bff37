package core

import (
	"errors"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
)

// errDrainAborted aborts a flush whose pre-flush AUQ drain could not finish
// because the region died underneath it (§5.3: the flush must not truncate
// the WAL record of still-pending index work).
var errDrainAborted = errors.New("core: flush aborted, AUQ drain interrupted by region close")

// observer is the per-table coprocessor (§7's SyncFullObserver,
// SyncInsertObserver and AsyncObserver folded into one dispatcher): it
// intercepts every mutation on an indexed base table and performs the
// maintenance required by each index's scheme.
type observer struct {
	m *Manager
}

var _ cluster.Coprocessor = (*observer)(nil)

// PostMutate implements index update on a row mutation. It runs inside
// the write pipeline on the base region's server, after the base cells
// were applied (SU1/AU1 already happened) and before the RPC returns. In
// LSM a delete is a put of a tombstone, and its index maintenance is the
// same pipeline with no new entry (§4.3).
func (o *observer) PostMutate(ctx cluster.RegionCtx, row []byte, m cluster.Mutation, ts kv.Timestamp) {
	o.m.Counters.BasePut.Inc()
	o.dispatch(ctx, task{row: row, ts: ts, putCols: m.Put, delCols: m.Del, enqueuedAt: time.Now()})
}

// dispatch routes one mutation to each index according to its scheme. The
// schemes partition per index, so a table can simultaneously carry e.g. a
// sync-insert index on title and an async index on price (§3.4).
func (o *observer) dispatch(ctx cluster.RegionCtx, t task) {
	defs := o.m.catalog.IndexesOn(ctx.Region.Info.Table)

	var needsSyncFull, needsAsync bool
	var localDefs []IndexDef
	for _, def := range defs {
		covered := (t.putCols != nil && def.Covers(t.putCols)) || (t.delCols != nil && def.CoversNames(t.delCols))
		if !covered {
			continue
		}
		if def.Local {
			// Local index maintenance is synchronous and region-local
			// (§3.1): same server, so the writes below cost no network hop.
			localDefs = append(localDefs, def)
			continue
		}
		switch def.Scheme {
		case SyncFull:
			needsSyncFull = true
		case SyncInsert:
			// Scheme sync-insert: run SU1 and SU2 only (§4.2) — insert the
			// new entry, leave stale entries for read repair. Deletes have
			// no new entry, so sync-insert does nothing for them until a
			// read repairs the stale entry.
			rpcStart := time.Now()
			o.syncInsert(ctx, def, t)
			d := time.Since(rpcStart)
			o.m.schemeStages.With(metrics.StageIndexRPC, ctx.Region.Info.Table, SyncInsert.String()).RecordDuration(d)
			ctx.Trace.AddStage(metrics.StageIndexRPC, d)
		case AsyncSimple, AsyncSession:
			needsAsync = true
		}
	}
	if len(localDefs) > 0 {
		if err := o.m.applyIndexUpdatesFor(ctx, t, false, localDefs); err != nil {
			retry := t
			retry.allIndexes = true
			o.m.auqFor(ctx).enqueue(retry)
		}
	}
	// Sync-full indexes share one pre-image read (Algorithm 1).
	if needsSyncFull {
		rpcStart := time.Now()
		err := o.syncFull(ctx, t)
		d := time.Since(rpcStart)
		o.m.schemeStages.With(metrics.StageIndexRPC, ctx.Region.Info.Table, SyncFull.String()).RecordDuration(d)
		ctx.Trace.AddStage(metrics.StageIndexRPC, d)
		if err != nil {
			// A failed synchronous operation degrades to eventual
			// consistency: the task enters the AUQ and is retried until it
			// succeeds (§6.2 Atomicity/Durability). allIndexes makes the
			// redelivery cover the sync indexes whose work failed.
			retry := t
			retry.allIndexes = true
			o.m.auqFor(ctx).enqueue(retry)
			return
		}
	}
	// Async indexes enqueue the mutation once; the APS applies it to every
	// asynchronous index (Algorithm 3, AU1-AU2). The enqueue is timed
	// because a full queue blocks here — backpressure is latency the client
	// observes (§8.2).
	if needsAsync {
		enqStart := time.Now()
		o.m.auqFor(ctx).enqueue(t)
		d := time.Since(enqStart)
		o.m.stageHist(metrics.StageAUQEnqueue, ctx.Region.Info.Table).RecordDuration(d)
		ctx.Trace.AddStage(metrics.StageAUQEnqueue, d)
	}
}

// syncFull runs the synchronous part of Algorithm 1 (SU2-SU4) for every
// sync-full index on the table.
func (o *observer) syncFull(ctx cluster.RegionCtx, t task) error {
	var defs []IndexDef
	for _, def := range o.m.catalog.IndexesOn(ctx.Region.Info.Table) {
		if !def.Local && def.Scheme == SyncFull && covered(def, t) {
			defs = append(defs, def)
		}
	}
	return o.m.applyIndexUpdatesFor(ctx, t, false, defs)
}

// syncInsert performs P_I(v_new ⊕ k, t_new) only — no base read, no delete
// (Equation 2: L(sync-insert) = L(P_I)).
func (o *observer) syncInsert(ctx cluster.RegionCtx, def IndexDef, t task) {
	if t.putCols == nil {
		return // deletes insert nothing; read repair cleans the stale entry
	}
	newVal, ok := indexValue(def, t.putCols)
	if !ok {
		// A partial put that does not cover the whole composite index:
		// complete the post-image from the pre-image of the index's columns.
		// (Single-column indexes — the paper's setting — never take this
		// branch, keeping sync-insert's update path free of base reads.)
		merged, err := readPreImage(ctx.Region, t.row, t.ts-kv.Delta, []IndexDef{def})
		if err != nil {
			o.m.auqFor(ctx).enqueue(t)
			return
		}
		o.m.Counters.BaseRead.Inc()
		for c, v := range t.putCols {
			merged[c] = v
		}
		if newVal, ok = indexValue(def, merged); !ok {
			return // row lacks indexed columns: no entry
		}
	}
	newKey := kv.IndexKey(newVal, t.row)
	cell := kv.Cell{Key: newKey, Ts: t.ts, Kind: kv.KindPut}
	conn := o.m.clientFor(ctx.Server.ID())
	if err := conn.MultiApply(def.Name(), []kv.Cell{cell}); err != nil {
		// Degrade to eventual consistency through the AUQ (§6.2). The AUQ
		// path also deletes the superseded entry, which is strictly more
		// repair than sync-insert promises — harmless.
		retry := t
		retry.allIndexes = true
		o.m.auqFor(ctx).enqueue(retry)
		return
	}
	o.m.Counters.IndexPut.Inc()
}

// PreFlush implements the drain-before-flush protocol (§5.3, Figure 5): it
// runs while the region's write gate is held exclusively (intake paused)
// and waits until the region's AUQ is empty, so no pending request refers
// to data about to be flushed (PR(Flushed) = ∅).
func (o *observer) PreFlush(ctx cluster.RegionCtx) error {
	if o.m.opts.DisableDrainOnFlush {
		return nil // ablation mode:§5.3's PR(Flushed) = ∅ invariant is broken
	}
	o.m.mu.Lock()
	q, ok := o.m.auqs[ctx.Region]
	o.m.mu.Unlock()
	if ok {
		// Count and time the drain: a deep queue here is a flush stall the
		// recovery experiments need to see (§5.3 pause-and-drain cost).
		table := ctx.Region.Info.Table
		o.m.reg.Counter("diffindex_flush_drains_total", metrics.L("table", table)).Inc()
		o.m.reg.Counter("diffindex_flush_drain_tasks_total", metrics.L("table", table)).Add(q.depth())
		drainStart := time.Now()
		drained := q.drain()
		o.m.stageHist(metrics.StageFlushDrain, table).RecordDuration(time.Since(drainStart))
		if !drained {
			// The region died (crash, move, decommission) before the queue
			// emptied. Aborting keeps the undrained tasks' base cells in the
			// WAL, where replay at the region's next host reconstructs them.
			return errDrainAborted
		}
	}
	return nil
}

// ReplayStarted marks n replayed cells as in flight toward re-enqueue:
// OpenRegion dispatches its OnReplay loop in the background, and until the
// returned func runs, convergence waits must not treat the AUQs as drained.
func (o *observer) ReplayStarted(n int) func() {
	o.m.replayInflight.Add(int64(n))
	return func() { o.m.replayInflight.Add(-int64(n)) }
}

// OnReplay re-enqueues every replayed base cell into the AUQ (§5.3): some
// may already have been delivered before the failure, but redelivery is
// idempotent because index entries carry the base entry's timestamp.
func (o *observer) OnReplay(ctx cluster.RegionCtx, c kv.Cell) {
	row, col, err := kv.SplitBaseKey(c.Key)
	if err != nil {
		return
	}
	t := task{row: append([]byte(nil), row...), ts: c.Ts, enqueuedAt: time.Now(), allIndexes: true}
	if c.Kind == kv.KindDelete {
		t.delCols = []string{string(col)}
	} else {
		t.putCols = map[string][]byte{string(col): append([]byte(nil), c.Value...)}
	}
	o.m.auqFor(ctx).enqueue(t)
}

// OnRegionClose tears down the region's AUQ; pending entries are dropped
// and will be reconstructed by WAL replay wherever the region reopens.
func (o *observer) OnRegionClose(ctx cluster.RegionCtx) {
	if q := o.m.dropAUQ(ctx.Region); q != nil {
		q.kill()
	}
}
