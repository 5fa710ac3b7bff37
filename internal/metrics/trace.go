package metrics

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical stage names recorded by the per-operation traces and the
// stage-latency histograms. DESIGN.md's Observability section documents
// which pipeline point owns each stage.
const (
	StageWAL        = "wal"          // WAL append + sync of one batch
	StageMemtable   = "memtable"     // memtable inserts of one batch
	StageIndexRPC   = "index-rpc"    // synchronous index maintenance (sync-full/sync-insert)
	StageIndexLocal = "index-local"  // local-index cells written into the row's own region
	StageAUQEnqueue = "auq-enqueue"  // enqueue onto the async update queue (blocks on backpressure)
	StageAPSDeliver = "aps-delivery" // enqueue → index cells durable (recorded after the fact)
	StageFlushDrain = "flush-drain"  // pre-flush AUQ drain (§5.3 pause-and-drain)
	StageStoreGet   = "store-get"    // LSM point read (all components merged)
	StageStoreScan  = "store-scan"   // LSM range read
	StageFlush      = "flush"        // whole memtable flush
	StageIndexScan  = "index-scan"   // index-table scan of an index read
	StageCheck      = "double-check" // sync-insert read-repair double checks (Algorithm 2)
	StageRepair     = "repair"       // batched deletion of stale entries found by a read
	StageMultiGet   = "multi-get"    // region-grouped batch read wave (FetchRows, SR2 batch)
)

// Stage is one attributed span of an operation's pipeline.
type Stage struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// Trace is the per-operation trace context: it rides one client operation
// from the client library through the region server, the LSM store and the
// index-maintenance pipeline, accumulating per-stage durations. A nil
// *Trace is valid and records nothing, so instrumentation points call its
// methods unconditionally.
//
// The stages of an ordinary operation fit the inline array, so a trace
// costs one allocation; the WAL position is kept as two integers and
// formatted only for an operation the slow-op log admits.
type Trace struct {
	op    string
	table string
	start time.Duration // on the monotonic clock, see monoNow

	mu       sync.Mutex
	stages   []Stage
	stageArr [4]Stage
	walSeg   uint64
	walOff   int64
	walSet   bool
}

// clockBase anchors monoNow.
var clockBase = time.Now()

// monoNow reads only the monotonic clock: time.Now also reads the wall
// clock, which a trace's duration never needs.
func monoNow() time.Duration { return time.Since(clockBase) }

// Op returns the operation name (put, get, scan, index-get, ...).
func (t *Trace) Op() string { return t.op }

// Table returns the table the operation addressed.
func (t *Trace) Table() string { return t.table }

// AddStage appends one completed stage. Safe on a nil trace.
func (t *Trace) AddStage(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Dur: d})
	t.mu.Unlock()
}

// noopEnd avoids a closure allocation on the disabled-tracing path.
var noopEnd = func() {}

// StartStage begins a stage and returns the function that ends it,
// appending the measured duration. Safe on a nil trace.
func (t *Trace) StartStage(name string) func() {
	if t == nil {
		return noopEnd
	}
	start := time.Now()
	return func() { t.AddStage(name, time.Since(start)) }
}

// SetWALPos records the WAL position (segment and offset) of the batch the
// operation appended, so that a slow-op entry can name where a stalled
// append landed. Later positions overwrite earlier ones. Safe on a nil
// trace.
func (t *Trace) SetWALPos(seg uint64, off int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.walSeg, t.walOff, t.walSet = seg, off, true
	t.mu.Unlock()
}

// Notes returns the trace's positional notes, formatted: "wal_pos" =
// "segment@offset" once SetWALPos ran, else nil.
func (t *Trace) Notes() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.walSet {
		return nil
	}
	return map[string]string{"wal_pos": strconv.FormatUint(t.walSeg, 10) + "@" + strconv.FormatInt(t.walOff, 10)}
}

// Stages returns a copy of the stages recorded so far.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Stage, len(t.stages))
	copy(out, t.stages)
	return out
}

// SlowOp is one entry of the slow-operation log: a completed operation with
// its total latency and stage breakdown.
type SlowOp struct {
	Op     string            `json:"op"`
	Table  string            `json:"table"`
	Total  time.Duration     `json:"total_ns"`
	Stages []Stage           `json:"stages,omitempty"`
	Notes  map[string]string `json:"notes,omitempty"`
}

// SlowOpLog retains the K slowest completed operations seen so far. Offer
// is cheap for the common (fast) operation: an atomic threshold check
// rejects anything faster than the current K-th slowest without locking.
type SlowOpLog struct {
	k   int
	min atomic.Int64 // admission threshold in ns; 0 until the log is full

	mu  sync.Mutex
	ops []SlowOp
}

// NewSlowOpLog returns a log retaining the k slowest ops (k ≤ 0 disables).
func NewSlowOpLog(k int) *SlowOpLog { return &SlowOpLog{k: k} }

// admits reports whether an op of total latency d would rank among the K
// slowest — the lock-free check that lets a fast op skip building its entry.
func (l *SlowOpLog) admits(d time.Duration) bool {
	return l != nil && l.k > 0 && int64(d) > l.min.Load()
}

// Offer records op if it ranks among the K slowest.
func (l *SlowOpLog) Offer(op SlowOp) {
	if !l.admits(op.Total) {
		return // faster than the current K-th slowest: not admissible
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ops) < l.k {
		l.ops = append(l.ops, op)
	} else {
		// Replace the fastest retained op (the threshold guaranteed op is
		// slower than it, barring a benign race we re-check here).
		minIdx := 0
		for i, o := range l.ops {
			if o.Total < l.ops[minIdx].Total {
				minIdx = i
			}
		}
		if l.ops[minIdx].Total >= op.Total {
			return
		}
		l.ops[minIdx] = op
	}
	if len(l.ops) == l.k {
		minDur := l.ops[0].Total
		for _, o := range l.ops {
			if o.Total < minDur {
				minDur = o.Total
			}
		}
		l.min.Store(int64(minDur))
	}
}

// Snapshot returns the retained ops, slowest first.
func (l *SlowOpLog) Snapshot() []SlowOp {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SlowOp, len(l.ops))
	copy(out, l.ops)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// Tracer mints and finishes operation traces against a registry: Finish
// records the operation's total latency into the per-op/per-table histogram
// and offers the trace to the slow-op log. A nil or disabled tracer returns
// nil traces, making the whole tracing path a no-op.
type Tracer struct {
	opLatency *HistogramVec
	slow      *SlowOpLog
	disabled  bool
}

// NewTracer builds a tracer over reg with a slow-op log of size slowK.
func NewTracer(reg *Registry, slowK int, disabled bool) *Tracer {
	return &Tracer{
		opLatency: reg.HistogramVec("diffindex_op_latency_ns", "op", "table"),
		slow:      NewSlowOpLog(slowK),
		disabled:  disabled,
	}
}

// Start begins tracing one operation; returns nil when tracing is disabled.
func (tr *Tracer) Start(op, table string) *Trace {
	if tr == nil || tr.disabled {
		return nil
	}
	t := &Trace{op: op, table: table, start: monoNow()}
	t.stages = t.stageArr[:0]
	return t
}

// Finish completes a trace: the total latency lands in the
// op-latency histogram for (op, table) and the trace is offered to the
// slow-op log. Only an op the log admits has its stages and notes copied.
// Safe with a nil trace or tracer.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	total := monoNow() - t.start
	tr.opLatency.With(t.op, t.table).RecordDuration(total)
	if tr.slow.admits(total) {
		tr.slow.Offer(SlowOp{Op: t.op, Table: t.table, Total: total, Stages: t.Stages(), Notes: t.Notes()})
	}
}

// SlowOps returns the slowest operations recorded so far, slowest first.
func (tr *Tracer) SlowOps() []SlowOp {
	if tr == nil {
		return nil
	}
	return tr.slow.Snapshot()
}
