package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/memtable"
	"diffindex/internal/metrics"
	"diffindex/internal/sstable"
	"diffindex/internal/wal"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("lsm: store is closed")

// ErrHistoryTrimmed refuses a read at a timestamp below the store's GC
// horizon, where compaction may have dropped the version that was visible
// (DESIGN.md §13). A read at or above the horizon is exact, so a read at
// kv.MaxTimestamp never returns it.
var ErrHistoryTrimmed = errors.New("lsm: read below the GC horizon: history trimmed")

// tableHandle reference-counts an open SSTable reader so that compactions can
// retire tables while reads are still in flight against them.
type tableHandle struct {
	r    *sstable.Reader
	refs atomic.Int32
	// dropped marks the table as replaced by a compaction: when the last
	// reference is released the file is deleted. closing marks the store as
	// closed: the last reference out closes the reader and leaves the file,
	// so a read that took its references just before Close finishes on an
	// open file instead of failing mid-block.
	dropped atomic.Bool
	closing atomic.Bool
	store   *Store
}

func (h *tableHandle) acquire() { h.refs.Add(1) }

// discard closes and deletes a table that was never installed.
func (h *tableHandle) discard() {
	h.r.Close()
	h.store.opts.FS.Remove(h.r.Name())
}

func (h *tableHandle) release() {
	if h.refs.Add(-1) != 0 {
		return
	}
	switch {
	case h.dropped.Load():
		h.store.opts.BlockCache.DropTable(h.r.Name())
		h.r.Close()
		h.store.opts.FS.Remove(h.r.Name())
	case h.closing.Load():
		h.r.Close()
	}
}

// Store is one LSM tree: the storage engine behind a single region of a
// single table.
type Store struct {
	opts Options

	// writeGate serializes writers against the pause-and-drain window of a
	// flush: writers hold it shared, the flush's pre-flush phase holds it
	// exclusively (§5.3 "1. pause & drain").
	writeGate sync.RWMutex

	mu       sync.RWMutex // guards the component lists and file numbering
	mem      *memtable.Memtable
	imm      []*memtable.Memtable // newest first
	tables   []*tableHandle       // newest first
	log      *wal.Log
	nextFile uint64
	closed   bool
	// horizon is the store's GC horizon H (DESIGN.md §13): monotone, at
	// least the max timestamp of every compaction round's inputs, and
	// stamped into every table written, so Open restores it as the maximum
	// over the tables. Reads below it are refused.
	horizon kv.Timestamp

	flushMu  sync.Mutex // serializes flushes
	flushing atomic.Bool
	bg       sync.WaitGroup
	// closeCh is closed by Close before waiting on bg, so paced background
	// loops (the scrubber) wake from their sleeps and exit promptly.
	closeCh chan struct{}

	// Compaction scheduling state: claimed (busy) tables, the number of
	// rounds in flight and of live workers, and the most recent background
	// failure. compMu orders strictly before mu (a claim holds compMu and
	// snapshots the table list under mu.RLock); compCond signals round and
	// worker completion. Flushes never touch this state, so flushing and
	// compaction proceed in parallel.
	compMu      sync.Mutex
	compCond    *sync.Cond
	compBusy    map[*tableHandle]struct{}
	compRunning int
	compWorkers int
	compLastErr string

	preFlush    []func() error       // coprocessor hooks run inside the write gate
	postCompact []func(CompactionGC) // hooks fed each round's GC'd cells

	// Instruments, resolved once at Open from Options.Metrics. They are
	// the store's only counts: Stats reads them back. The stage histograms
	// see every operation where it runs, traced or not.
	stageWAL, stageMem, stageGet, stageScan, stageFlush             *metrics.Histogram
	flushBytes, compRounds, compErrors, compGCCells, compTombstones *metrics.Counter
	compBytesRead, compBytesWritten                                 *metrics.Counter
	scrubBlocks, scrubBytes, scrubCorruptions, scrubCycles          *metrics.Counter
}

// Open opens (or creates) the store in opts.Dir, replaying any WAL left by a
// previous incarnation into a fresh memtable and invoking opts.OnReplay for
// each recovered cell.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.FS == nil || opts.Dir == "" {
		return nil, errors.New("lsm: Options.FS and Options.Dir are required")
	}
	s := &Store{opts: opts, mem: memtable.New(), compBusy: make(map[*tableHandle]struct{})}
	s.compCond = sync.NewCond(&s.compMu)
	s.closeCh = make(chan struct{})

	reg, table := opts.Metrics, metrics.L("table", opts.MetricsTable)
	stage := func(name string) *metrics.Histogram {
		return reg.Histogram("diffindex_stage_latency_ns", metrics.L("stage", name), table)
	}
	s.stageWAL = stage(metrics.StageWAL)
	s.stageMem = stage(metrics.StageMemtable)
	s.stageGet = stage(metrics.StageStoreGet)
	s.stageScan = stage(metrics.StageStoreScan)
	s.stageFlush = stage(metrics.StageFlush)
	s.flushBytes = reg.Counter("diffindex_flush_bytes_total", table)
	s.compRounds = reg.Counter("diffindex_compaction_rounds_total", table)
	s.compErrors = reg.Counter("diffindex_compaction_errors_total", table)
	s.compBytesRead = reg.Counter("diffindex_compaction_bytes_total", metrics.L("dir", "read"), table)
	s.compBytesWritten = reg.Counter("diffindex_compaction_bytes_total", metrics.L("dir", "write"), table)
	s.compGCCells = reg.Counter("diffindex_compaction_gc_cells_total", table)
	s.compTombstones = reg.Counter("diffindex_compaction_tombstones_dropped_total", table)
	s.scrubBlocks = reg.Counter("diffindex_scrub_blocks_total", table)
	s.scrubBytes = reg.Counter("diffindex_scrub_bytes_total", table)
	s.scrubCorruptions = reg.Counter("diffindex_scrub_corruptions_total", table)
	s.scrubCycles = reg.Counter("diffindex_scrub_cycles_total", table)

	// Open existing SSTables, newest (highest file number) first.
	names, err := opts.FS.List(opts.Dir + "/")
	if err != nil {
		return nil, fmt.Errorf("lsm: list %s: %w", opts.Dir, err)
	}
	var nums []uint64
	for _, name := range names {
		if n, ok := parseTableNum(opts.Dir, name); ok {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] > nums[j] })
	for _, n := range nums {
		r, err := sstable.Open(opts.FS, tableName(opts.Dir, n), opts.BlockCache)
		if err != nil {
			return nil, err
		}
		h := &tableHandle{r: r, store: s}
		h.refs.Store(1) // the store's own reference
		s.tables = append(s.tables, h)
		s.horizon = max(s.horizon, r.Horizon())
		if n >= s.nextFile {
			s.nextFile = n + 1
		}
	}

	// Replay the WAL into the memtable; surface each cell to OnReplay so
	// Diff-Index can re-enqueue index work.
	log, err := wal.OpenWith(opts.FS, opts.Dir+"/wal", wal.ReplayConfig{
		Replay: func(rec wal.Record) {
			c := rec.Cell()
			s.mem.Add(c)
			if opts.OnReplay != nil {
				opts.OnReplay(c)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.log = log

	appends := reg.Counter("diffindex_wal_appends_total", table)
	walBytes := reg.Counter("diffindex_wal_bytes_total", table)
	log.SetObserver(func(recs, n int, d time.Duration) {
		appends.Add(int64(recs))
		walBytes.Add(int64(n))
	})
	if !opts.DisableScrub {
		s.bg.Add(1)
		go s.scrubLoop()
	}
	return s, nil
}

func tableName(dir string, n uint64) string {
	return fmt.Sprintf("%s/%020d.sst", dir, n)
}

func parseTableNum(dir, name string) (uint64, bool) {
	prefix := dir + "/"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".sst") {
		return 0, false
	}
	numStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".sst")
	if strings.Contains(numStr, "/") {
		return 0, false
	}
	n, err := strconv.ParseUint(numStr, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// RegisterPreFlush adds a hook run at the start of every flush, while new
// writes are paused and before the memtable is swapped — the coprocessor
// point where Diff-Index drains the AUQ (§5.3). A hook error aborts the
// flush before anything is swapped or truncated: if the drain cannot
// complete (the region is closing underneath the flush), truncating the WAL
// would destroy the only record of the undrained work.
func (s *Store) RegisterPreFlush(hook func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.preFlush = append(s.preFlush, hook)
}

// Put appends a value version: WAL first, then memtable (§2.2).
func (s *Store) Put(key, value []byte, ts kv.Timestamp) error {
	return s.apply(kv.Cell{Key: key, Value: value, Ts: ts, Kind: kv.KindPut})
}

// Delete appends a tombstone masking versions of key with timestamp ≤ ts.
func (s *Store) Delete(key []byte, ts kv.Timestamp) error {
	return s.apply(kv.Cell{Key: key, Ts: ts, Kind: kv.KindDelete})
}

// Apply appends a pre-built cell (used by replay and idempotent redelivery).
func (s *Store) Apply(c kv.Cell) error { return s.apply(c) }

// Pipeline runs fn while holding the store's write gate shared. A flush's
// pause-and-drain phase (§5.3) holds the gate exclusively, so everything fn
// does — applying cells via ApplyBatchLocked and enqueueing asynchronous
// index work — is atomic with respect to the memtable swap: work enqueued
// inside a pipeline always refers to data in the *current* memtable, which
// is the paper's PR(Flushed) = ∅ invariant. fn must not call Put, Delete,
// Apply, ApplyBatch or Flush on this store (the gate is not reentrant); use
// ApplyBatchLocked instead.
func (s *Store) Pipeline(fn func() error) error {
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return fn()
}

// ApplyBatchLocked is ApplyBatch without acquiring the write gate. Callers
// must guarantee ordering against flushes themselves: either they run inside
// a Pipeline callback (the gate is already held — acquiring it again would
// deadlock), or they run from work a flush's pre-flush hook waits on (e.g.
// this region's AUQ, which is drained to completion before the memtable
// swap). tr, when non-nil, receives the wal and memtable stage durations of
// this batch.
func (s *Store) ApplyBatchLocked(cells []kv.Cell, tr *metrics.Trace) error {
	return s.applyBatch(cells, tr)
}

// ApplyBatch appends several cells with one WAL sync (HBase group-commits a
// multi-column put as one WAL edit, giving row-level durability atomicity).
func (s *Store) ApplyBatch(cells []kv.Cell) error {
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()
	return s.applyBatch(cells, nil)
}

func (s *Store) applyBatch(cells []kv.Cell, tr *metrics.Trace) error {
	if len(cells) == 0 {
		return nil
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	log, mem := s.log, s.mem
	s.mu.RUnlock()

	recs := make([]wal.Record, len(cells))
	for i, c := range cells {
		recs[i] = wal.Record{Key: c.Key, Value: c.Value, Ts: c.Ts, Kind: c.Kind}
	}
	walStart := time.Now()
	pos, err := log.AppendBatchPos(recs)
	if errors.Is(err, wal.ErrClosed) {
		// Close shut the log after the closed check above. Nothing was
		// written, so the caller may re-route and retry like any write to a
		// closed store.
		return ErrClosed
	}
	if err != nil {
		return err
	}
	d := time.Since(walStart)
	s.stageWAL.RecordDuration(d)
	tr.AddStage(metrics.StageWAL, d)
	// The durable log position of this batch: a slow-op entry can name the
	// exact segment@offset a stalled append landed at.
	tr.SetWALPos(pos.Seg, pos.Off)
	memStart := time.Now()
	for _, c := range cells {
		mem.Add(c)
	}
	d = time.Since(memStart)
	s.stageMem.RecordDuration(d)
	tr.AddStage(metrics.StageMemtable, d)
	if !s.opts.DisableAutoFlush && mem.ApproximateBytes() >= s.opts.MemtableBytes {
		s.maybeScheduleFlush()
	}
	return nil
}

func (s *Store) apply(c kv.Cell) error {
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()
	return s.applyBatch([]kv.Cell{c}, nil)
}

func (s *Store) maybeScheduleFlush() {
	if s.flushing.CompareAndSwap(false, true) {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			defer s.flushing.Store(false)
			if err := s.Flush(); err != nil && !errors.Is(err, ErrClosed) {
				// Background flush failures leave data in the memtable and
				// WAL; the next flush retries. Nothing is lost.
				return
			}
		}()
	}
}

// Flush persists the current memtable as an SSTable. The sequence follows
// §5.3: (1) pause writes and run pre-flush hooks (Diff-Index drains the AUQ
// here), (2) roll the WAL and swap in a fresh memtable, (3) write the
// SSTable, (4) install it and roll the WAL forward (truncate old segments).
func (s *Store) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	flushStart := time.Now()
	defer func() { s.stageFlush.RecordDuration(time.Since(flushStart)) }()

	// Phase 1-2: pause & drain, then swap, under the exclusive write gate.
	s.writeGate.Lock()
	s.mu.RLock()
	hooks := s.preFlush
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		s.writeGate.Unlock()
		return ErrClosed
	}
	for _, hook := range hooks {
		if err := hook(); err != nil {
			s.writeGate.Unlock()
			return err
		}
	}
	s.mu.Lock()
	old := s.mem
	if old.Len() == 0 {
		s.mu.Unlock()
		s.writeGate.Unlock()
		return nil
	}
	keepSeg, err := s.log.Roll()
	if err != nil {
		s.mu.Unlock()
		s.writeGate.Unlock()
		return err
	}
	s.mem = memtable.New()
	s.imm = append([]*memtable.Memtable{old}, s.imm...)
	fileNum, horizon := s.nextFile, s.horizon
	s.nextFile++
	s.mu.Unlock()
	s.writeGate.Unlock()

	// Phase 3: write the SSTable without blocking writers.
	h, err := s.writeTable(fileNum, horizon, func(w *sstable.Writer) error {
		it := old.Iterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if err := w.Add(it.InternalKey(), it.Cell().Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 4: install and roll the WAL forward.
	s.mu.Lock()
	s.tables = append([]*tableHandle{h}, s.tables...)
	// slices.Delete clears the vacated slot, so the flushed memtable is
	// unreachable from the spare capacity and the GC can free it.
	if i := slices.Index(s.imm, old); i >= 0 {
		s.imm = slices.Delete(s.imm, i, i+1)
	}
	s.mu.Unlock()
	s.flushBytes.Add(h.r.Size())

	// Let the tiered picker decide whether any merge is due (tier full, or
	// total table count past CompactionThreshold). The scheduler returns
	// immediately when there is nothing to do or workers are saturated, and
	// rounds run concurrently with subsequent flushes.
	if !s.opts.DisableAutoCompact {
		s.maybeScheduleCompaction()
	}
	// A failed truncation is reported, but the table stays installed and
	// counted: recovery replays the segments left behind, re-applying
	// identical versions the read path dedupes.
	_, err = s.log.TruncateBefore(keepSeg)
	return err
}

// writeTable writes table number num, stamped with horizon, from the
// entries add feeds the writer, and opens it with the store's reference.
func (s *Store) writeTable(num uint64, horizon kv.Timestamp, add func(*sstable.Writer) error) (*tableHandle, error) {
	name := tableName(s.opts.Dir, num)
	w, err := sstable.NewWriter(s.opts.FS, name)
	if err != nil {
		return nil, err
	}
	w.SetHorizon(horizon)
	if err := add(w); err != nil {
		w.Abandon()
		s.opts.FS.Remove(name)
		return nil, err
	}
	if err := w.Finish(); err != nil {
		s.opts.FS.Remove(name)
		return nil, err
	}
	r, err := sstable.Open(s.opts.FS, name, s.opts.BlockCache)
	if err != nil {
		return nil, err
	}
	h := &tableHandle{r: r, store: s}
	h.refs.Store(1)
	return h, nil
}

// Horizon returns the store's GC horizon: reads below it are refused with
// ErrHistoryTrimmed.
func (s *Store) Horizon() kv.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.horizon
}

// RaiseHorizon raises the store's GC horizon to at least h and persists it
// in an empty table. A region filled from copies of already-trimmed
// history starts at its sources' horizon this way, so it refuses what they
// refused.
func (s *Store) RaiseHorizon(h kv.Timestamp) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if h <= s.horizon {
		s.mu.Unlock()
		return nil
	}
	num := s.nextFile
	s.nextFile++
	s.mu.Unlock()
	t, err := s.writeTable(num, h, func(*sstable.Writer) error { return nil })
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		t.discard()
		return ErrClosed
	}
	s.tables = append(s.tables, t)
	s.horizon = max(s.horizon, h)
	return nil
}

// components snapshots the store's components newest-first for a read at
// ts, acquiring table references the caller must release via the returned
// function. A read below the horizon is refused here, against the same
// snapshot: a round raises the horizon before it installs its output.
func (s *Store) components(ts kv.Timestamp) ([]*memtable.Memtable, []*tableHandle, func(), error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, nil, nil, ErrClosed
	}
	if ts < s.horizon {
		return nil, nil, nil, ErrHistoryTrimmed
	}
	mems := make([]*memtable.Memtable, 0, 1+len(s.imm))
	mems = append(mems, s.mem)
	mems = append(mems, s.imm...)
	tables := make([]*tableHandle, len(s.tables))
	copy(tables, s.tables)
	for _, h := range tables {
		h.acquire()
	}
	release := func() {
		for _, h := range tables {
			h.release()
		}
	}
	return mems, tables, release, nil
}

// Get returns the newest non-tombstone version of key with timestamp ≤ ts.
// The bool reports whether such a version exists. Following LSM semantics,
// the winning version is the one with the largest timestamp across all
// components; a tombstone at that timestamp hides the key. Get is the
// one-key case of MultiGet.
func (s *Store) Get(key []byte, ts kv.Timestamp) (kv.Cell, bool, error) {
	var out [1]GetResult
	err := s.MultiGet([][]byte{key}, ts, out[:])
	return out[0].Cell, out[0].Found, err
}

// GetResult answers one key of a MultiGet.
type GetResult struct {
	Cell  kv.Cell
	Found bool
}

// MultiGet is Get for a batch: out[i] answers keys[i]. The batch reads one
// snapshot of the store's components and walks the keys in sorted order,
// so keys that share a table's data block fetch it once. Tables whose max
// timestamp rules out a winning version are not read (DESIGN §12).
func (s *Store) MultiGet(keys [][]byte, ts kv.Timestamp, out []GetResult) error {
	if len(keys) > 0 {
		start := time.Now()
		defer func() { // one sample per key: the stage stays one point read
			per := time.Since(start) / time.Duration(len(keys))
			for range keys {
				s.stageGet.RecordDuration(per)
			}
		}()
	}
	mems, tables, release, err := s.components(ts)
	if err != nil {
		return err
	}
	defer release()

	// Keys sharing a block reach its table's memo one after another when
	// walked in sorted order; an unsorted batch walks a sorted permutation.
	var order []int
	var memos []sstable.BlockMemo
	if len(keys) > 1 {
		memos = make([]sstable.BlockMemo, len(tables))
		if !slices.IsSortedFunc(keys, bytes.Compare) {
			order = make([]int, len(keys))
			for i := range order {
				order[i] = i
			}
			slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
		}
	}
	for n := range keys {
		i := n
		if order != nil {
			i = order[n]
		}
		key := keys[i]
		// Candidates alias memtable and block memory; only the winner is cloned.
		var best kv.Cell
		found := false
		for _, m := range mems {
			if c, ok := m.Get(key, ts); ok && wins(c, best, found) {
				best, found = c, true
			}
		}
		for t, h := range tables {
			// Skip tables whose user-key bounds exclude the key: a zero-I/O
			// check (the bounds ride the index block) that spares the Bloom
			// probe and any block read.
			if !h.r.MayContainKey(key) {
				continue
			}
			// Skip tables that cannot hold a winning version: every entry
			// is older than the best so far, or only ties a tombstone.
			// Timestamps arrive out of component order (t−δ deletes,
			// repairs, WAL replay): decided per table, never by stopping.
			if found && (h.r.MaxTimestamp() < best.Ts || h.r.MaxTimestamp() == best.Ts && best.Tombstone()) {
				continue
			}
			memo := &sstable.BlockMemo{} // a one-key batch reuses nothing
			if memos != nil {
				memo = &memos[t]
			}
			c, ok, err := h.r.GetMemo(key, ts, memo)
			if err != nil {
				return err
			}
			if ok && wins(c, best, found) {
				best, found = c, true
			}
		}
		out[i] = GetResult{}
		if found && !best.Tombstone() {
			out[i] = GetResult{Cell: best.Clone(), Found: true}
		}
	}
	return nil
}

// wins reports whether version c beats best, the winner so far if found: it
// is newer, or a tombstone beside a put at its timestamp (the HBase rule).
func wins(c, best kv.Cell, found bool) bool {
	return !found || c.Ts > best.Ts || c.Ts == best.Ts && c.Tombstone() && !best.Tombstone()
}

// ScanResult is one user key's visible version in a scan.
type ScanResult struct {
	Key   []byte
	Value []byte
	Ts    kv.Timestamp
}

// ScanRange is one range of a MultiScan: the store keys in [Start, End). A
// nil End means "to the end of the store".
type ScanRange struct {
	Start, End []byte
}

// Scan returns the newest visible (non-deleted) version of every user key in
// [start, end) at timestamp ts, up to limit results (limit ≤ 0 means
// unlimited). A nil end means "to the end of the store". Scan is the
// one-range case of MultiScan.
func (s *Store) Scan(start, end []byte, ts kv.Timestamp, limit int) ([]ScanResult, error) {
	out, err := s.MultiScan([]ScanRange{{Start: start, End: end}}, ts, limit)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// MultiScan is Scan for a batch: out[i] answers ranges[i], up to limit
// results each. The batch reads one snapshot of the store's components.
func (s *Store) MultiScan(ranges []ScanRange, ts kv.Timestamp, limit int) ([][]ScanResult, error) {
	mems, tables, release, err := s.components(ts)
	if err != nil {
		return nil, err
	}
	defer release()
	out := make([][]ScanResult, len(ranges))
	for i, r := range ranges {
		start := time.Now()
		out[i], err = scanRange(mems, tables, r, ts, limit)
		s.stageScan.RecordDuration(time.Since(start)) // one sample per range
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanRange is one range of a MultiScan, read from the given components.
func scanRange(mems []*memtable.Memtable, tables []*tableHandle, r ScanRange, ts kv.Timestamp, limit int) ([]ScanResult, error) {
	// A range that is exactly one composite part (a row, an index value)
	// skips every table whose bounds or filter rule the part out.
	onePart := kv.IsPartRange(r.Start, r.End)
	merged := mergeOf(mems, tables, func(h *tableHandle) bool { return !onePart || h.r.MayContainPrefix(r.Start) })
	merged.Seek(kv.SeekKey(r.Start, ts))

	var out []ScanResult
	var curUser []byte // user key whose visible version has been decided
	for merged.Valid() {
		c := merged.Cell()
		if r.End != nil && bytes.Compare(c.Key, r.End) >= 0 {
			break
		}
		if curUser != nil && bytes.Equal(c.Key, curUser) {
			merged.Next()
			continue // older version of an already-decided key
		}
		if c.Ts > ts {
			merged.Next()
			continue // version newer than the read timestamp: invisible
		}
		// First visible version of a new user key decides it.
		curUser = append(curUser[:0], c.Key...)
		if !c.Tombstone() {
			out = append(out, ScanResult{
				Key:   append([]byte(nil), c.Key...),
				Value: append([]byte(nil), c.Value...),
				Ts:    c.Ts,
			})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		merged.Next()
	}
	return out, merged.Err()
}

// mergeOf merges the iterators of every memtable and of each table keep
// admits, newest first.
func mergeOf(mems []*memtable.Memtable, tables []*tableHandle, keep func(*tableHandle) bool) *mergeIterator {
	iters := make([]internalIterator, 0, len(mems)+len(tables))
	for _, m := range mems {
		iters = append(iters, m.Iterator())
	}
	for _, h := range tables {
		if keep(h) {
			iters = append(iters, h.r.Iterator())
		}
	}
	return newMergeIterator(iters)
}

// ScanAll returns every version of every user key in [start, end) with
// timestamp ≤ ts — puts and tombstones alike. Region copies (split/merge
// streaming) use it: a copied region must be a faithful replica of the
// source's MVCC history above its GC horizon, not just its visible
// surface. Tombstones must survive the copy so late-redelivered index
// cells (at-least-once delivery) stay masked.
func (s *Store) ScanAll(start, end []byte, ts kv.Timestamp) ([]kv.Cell, error) {
	mems, tables, release, err := s.components(ts)
	if err != nil {
		return nil, err
	}
	defer release()

	merged := mergeOf(mems, tables, func(*tableHandle) bool { return true })
	merged.Seek(kv.SeekKey(start, ts))

	var out []kv.Cell
	for merged.Valid() {
		c := merged.Cell()
		if end != nil && bytes.Compare(c.Key, end) >= 0 {
			break
		}
		if c.Ts > ts {
			merged.Next()
			continue
		}
		// Identical internal keys across components were already deduplicated
		// by the merge iterator (newest component wins), so every cell here is
		// a distinct (key, ts, kind) version worth copying.
		out = append(out, c.Clone())
		merged.Next()
	}
	if err := merged.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats reads the store's flush and compaction counters back from its
// registry instruments (the Stats type says what a shared registry reports).
func (s *Store) Stats() Stats {
	s.compMu.Lock()
	lastErr := s.compLastErr
	s.compMu.Unlock()
	return Stats{
		Compactions:            s.compRounds.Load(),
		FlushBytes:             s.flushBytes.Load(),
		CompactionBytesRead:    s.compBytesRead.Load(),
		CompactionBytesWritten: s.compBytesWritten.Load(),
		CompactionCellsDropped: s.compGCCells.Load(),
		TombstonesDropped:      s.compTombstones.Load(),
		CompactionErrors:       s.compErrors.Load(),
		LastCompactionError:    lastErr,
	}
}

// ActiveWALSegment returns the WAL's active segment number, which moves
// when a flush or a failed append rolls the log.
func (s *Store) ActiveWALSegment() uint64 {
	return s.log.ActiveSegment()
}

// MemtableBytes returns the active memtable's approximate size.
func (s *Store) MemtableBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mem.ApproximateBytes()
}

// TableCount returns the number of live SSTables.
func (s *Store) TableCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Closed reports whether Close has run. Retry loops holding a reference to
// a region use it to stop once the region has moved away: further work here
// is wasted, and the WAL they would have served is replayed at the new host.
func (s *Store) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close waits for background work and releases every resource. The WAL is
// retained so a reopened store recovers unflushed data.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	// An explicit Flush writes and installs its table holding only flushMu,
	// and bg covers only auto-flushes: wait it out, or the next owner of the
	// directory opens a half-written table and the late install leaks its
	// reader into a closed store.
	s.flushMu.Lock()
	s.flushMu.Unlock()
	s.mu.Lock()
	tables := s.tables
	s.tables = nil
	s.mu.Unlock()

	close(s.closeCh) // wake the scrubber out of its paced sleeps
	s.bg.Wait()
	// Drop the store's own references. No read can start any more; the last
	// one still in flight on a table closes its reader on the way out.
	for _, h := range tables {
		h.closing.Store(true)
		h.release()
	}
	return s.log.Close()
}
