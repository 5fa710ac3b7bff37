package core

import (
	"sync"
	"sync/atomic"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
)

// task is one unit of asynchronous index work: a base mutation whose index
// maintenance the APS must perform. The paper's AUQ stores "the put"
// (Algorithm 3, AU1); our task carries the mutated columns plus the base
// timestamp, which is everything Algorithm 4 needs.
type task struct {
	row []byte
	ts  kv.Timestamp
	// putCols holds the mutation's written column values, delCols names
	// its tombstoned columns.
	putCols map[string][]byte
	delCols []string
	// enqueuedAt is T1 of the staleness measurement (§8.2 "Index
	// consistency in async-simple"): the moment the base data persisted.
	enqueuedAt time.Time
	// allIndexes widens the task from asynchronous indexes only (the
	// normal AU1 path) to every index on the table: set for tasks created
	// by WAL replay and by failed synchronous operations, where work for
	// sync-scheme indexes may have been lost and redelivery is idempotent.
	allIndexes bool
}

// auq is the asynchronous update queue of one region, plus its asynchronous
// processing service (APS) workers. The paper describes one AUQ per region
// server; scoping the queue per region preserves its semantics (the server's
// AUQ is the union of its regions' queues) while making the
// drain-before-flush protocol exact: a region's flush waits precisely for
// the entries whose base data is in that region's memtable (see DESIGN.md).
type auq struct {
	m   *Manager
	ctx cluster.RegionCtx

	ch      chan task
	pending atomic.Int64 // queued + in-flight tasks
	wg      sync.WaitGroup

	// delivery records enqueue→durable latency per completed task (the
	// aps-delivery stage, observed after the fact).
	delivery *metrics.Histogram
	// shed counts arrivals degraded to the synchronous path by the
	// MaxBacklog admission cap.
	shed *metrics.Counter

	// mu orders enqueues against kill: enqueuers hold it shared while
	// sending, kill takes it exclusively before closing the channel.
	mu     sync.RWMutex
	killed atomic.Bool
}

func newAUQ(m *Manager, ctx cluster.RegionCtx) *auq {
	q := &auq{
		m:        m,
		ctx:      ctx,
		ch:       make(chan task, m.opts.QueueCapacity),
		delivery: m.stageHist(metrics.StageAPSDeliver, ctx.Region.Info.Table),
		shed:     m.reg.Counter("diffindex_auq_shed_total", metrics.L("table", ctx.Region.Info.Table)),
	}
	for i := 0; i < m.opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// enqueue adds a task (AU1). It is always called inside the region's write
// pipeline, so it cannot race with the exclusive pause-and-drain phase of a
// flush. Without an admission cap a full queue applies backpressure to the
// writer — the resource contention the paper observes for async at high
// load (§8.2, Fig. 7). With MaxBacklog set, an arrival that would push the
// backlog past the cap is shed to the synchronous path instead.
func (q *auq) enqueue(t task) {
	q.mu.RLock()
	if q.killed.Load() {
		q.mu.RUnlock()
		return // region is gone; WAL replay will reconstruct the work
	}
	n := q.pending.Add(1)
	if max := int64(q.m.opts.MaxBacklog); max > 0 && n > max {
		// Admission control: over the cap, degrade to sync. The pending slot
		// stays held until the task resolves — a concurrent flush's drain
		// must wait for it, or the flush could truncate the WAL record of a
		// task whose inline maintenance then fails, losing the update.
		q.mu.RUnlock()
		q.shedToSync(t)
		return
	}
	// A full queue blocks here (backpressure); the workers keep consuming,
	// and kill cannot close the channel while we hold the lock shared.
	q.ch <- t
	q.mu.RUnlock()
}

// shedToSync is the admission-control overflow path: perform the task's
// index maintenance inline on the writer (the synchronous algorithm), as if
// the index were sync-configured for this one put. The backlog stays at the
// cap and index staleness stays bounded — the async scheme degrades toward
// sync under overload instead of growing an unbounded queue. If the inline
// maintenance fails (destination mid-fault), the task falls back to a
// blocking enqueue: a transient cap overshoot beats losing the work.
func (q *auq) shedToSync(t task) {
	q.shed.Inc()
	if err := q.m.applyIndexUpdatesFor(q.ctx, t, false, q.m.relevantIndexes(q.ctx, t)); err == nil {
		q.m.observeStaleness(t.enqueuedAt)
		q.pending.Add(-1)
		return
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.killed.Load() {
		// Region closed mid-shed. The held pending slot kept every flush
		// drain waiting on this task, so its base cell is still in the WAL
		// and replay reconstructs the work at the region's next host.
		q.pending.Add(-1)
		return
	}
	q.ch <- t
}

// drain blocks until every queued and in-flight task has completed — the
// "1. pause & drain" step of Figure 5. It runs inside the store's exclusive
// write gate, which is what pauses the AUQ's intake: no pipeline can
// enqueue while the flush holds the gate. Returns false if the region died
// first: the caller's flush must then abort, because truncating the WAL
// with tasks still pending would destroy their only replay source.
func (q *auq) drain() bool {
	for q.pending.Load() > 0 {
		if q.killed.Load() || q.ctx.Server.Crashed() || q.ctx.Region.Store().Closed() {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// kill tears the queue down: workers exit and pending tasks are dropped.
// Dropped work is reconstructed by WAL replay when the region reopens
// (§5.3: replayed puts re-enter the AUQ, idempotently).
func (q *auq) kill() {
	q.mu.Lock()
	if !q.killed.CompareAndSwap(false, true) {
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	close(q.ch)
	q.wg.Wait()
}

func (q *auq) worker() {
	defer q.wg.Done()
	batch := make([]task, 0, q.m.opts.APSBatch)
	for t := range q.ch {
		// Micro-batching: after the first (blocking) receive, drain up to
		// APSBatch−1 more queued tasks without blocking, then coalesce the
		// whole batch's index mutations into region-batched applies.
		batch = append(batch[:0], t)
		q.fill(&batch)
		q.processBatch(batch)
	}
	// Drain remaining pending count for anyone stuck in drain().
	for range q.ch {
		q.pending.Add(-1)
	}
}

// fill appends queued tasks to *batch without blocking, up to the APSBatch
// bound. A closed channel simply stops the fill; the tasks already received
// are still processed.
func (q *auq) fill(batch *[]task) {
	for len(*batch) < q.m.opts.APSBatch {
		select {
		case t, ok := <-q.ch:
			if !ok {
				return
			}
			*batch = append(*batch, t)
		default:
			return
		}
	}
}

// processBatch performs the background index maintenance for a drained
// batch of tasks (micro-batched Algorithm 4): per task, read the pre-image
// at ts−δ and compute the superseded deletes and new inserts; then ship the
// coalesced cells with one Apply per destination index region. Transient
// failures retry the whole batch with backoff — redelivery is idempotent
// because index cells carry the base entries' timestamps — until the region
// dies; this is what guarantees eventual execution (§5.1).
//
// pending is decremented only after every task's cells are durable (or on
// region death, where drain() gives up anyway and WAL replay reconstructs
// the work), so the drain-before-flush invariant PR(Flushed) = ∅ holds:
// a flush's drain cannot complete while any drained task's index cells are
// still in flight.
func (q *auq) processBatch(batch []task) {
	defer q.pending.Add(-int64(len(batch)))
	q.m.apsBatch.Record(int64(len(batch)))
	backoff := 200 * time.Microsecond
	for {
		err := q.m.applyIndexBatch(q.ctx, batch)
		if err == nil {
			for _, t := range batch {
				q.delivery.RecordDuration(time.Since(t.enqueuedAt))
				q.m.observeStaleness(t.enqueuedAt)
			}
			return
		}
		if q.killed.Load() || q.ctx.Server.Crashed() || q.ctx.Region.Store().Closed() {
			// Dropped; WAL replay reconstructs it. The store check covers a
			// region a balancer move or decommission closed underneath a
			// straggler enqueue that resurrected this queue after kill —
			// without it the batch would retry against the closed store
			// forever and its pending count would never converge.
			return
		}
		time.Sleep(backoff)
		if backoff < 20*time.Millisecond {
			backoff *= 2
		}
	}
}

// QueueDepth returns the number of queued plus in-flight tasks (used by
// experiments to wait for convergence and to report AUQ pressure).
func (q *auq) depth() int64 { return q.pending.Load() }
