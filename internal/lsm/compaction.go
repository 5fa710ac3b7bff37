package lsm

import (
	"errors"
	"sort"

	"diffindex/internal/kv"
	"diffindex/internal/sstable"
)

// This file implements size-tiered incremental compaction. Instead of the
// original stop-the-world major compaction (merge *every* live SSTable into
// one, single-flight), tables are grouped into size tiers and each round
// merges a bounded set — at most Options.CompactionFanIn similar-sized
// tables — so a round's I/O stays proportional to the data it rewrites, not
// to the store's total size. Rounds with disjoint input sets run
// concurrently (up to maxConcurrentCompactions), and because a
// round never touches the memtable or the write gate, flushes proceed in
// parallel with compaction.
//
// What a round keeps is one rule against the store's GC horizon (see
// compactRound): every read at or above the horizon sees what it saw before
// the round, and reads below it are refused. Tombstone handling follows the
// bottom-tier rule: a delete marker may only be dropped when the round's
// inputs include every table older than the marker (the inputs form the
// complete tail of the table list). Anywhere else the tombstone is
// rewritten into the output so it keeps masking versions living in older,
// untouched tables.

// Size-tier geometry: tier 0 holds tables below tierBase·tierRatio bytes,
// and each subsequent tier covers the next tierRatio× size band. With
// 64 KiB × 4 the first boundaries are 256 KiB, 1 MiB, 4 MiB — sized so that
// memtable-flush outputs land in tier 0 and each merge promotes its output
// roughly one tier up.
const (
	tierBase  = 64 << 10
	tierRatio = 4
)

// tierOf maps a table size to its size tier.
func tierOf(size int64) int {
	tier := 0
	for limit := int64(tierBase * tierRatio); size >= limit; limit *= tierRatio {
		tier++
	}
	return tier
}

// tableMeta is the picker's view of one live table. The slice given to
// pickTiered is ordered newest-first, mirroring Store.tables.
type tableMeta struct {
	Size int64
	Busy bool // claimed by a running compaction round
}

// pickTiered selects the inputs for one compaction round: the indices (into
// metas) of at most fanIn idle tables from the smallest-size tier holding at
// least fanIn of them — the classic size-tiered trigger, merging peers of
// similar size. It returns nil when no tier is full, unless force is set:
// then it takes the fanIn smallest idle tables overall, so a forced round
// makes progress across tier boundaries. It also returns nil when fewer than
// two tables are idle.
//
// A round never rewrites more than fanIn tables, and a table waits in its
// tier until fanIn−1 peers join it, so each byte is rewritten about once per
// tier, and with no round running a store holds at most fanIn−1 tables per
// tier (DESIGN.md §10).
func pickTiered(metas []tableMeta, fanIn int, force bool) []int {
	var cand []int
	for i, m := range metas {
		if !m.Busy {
			cand = append(cand, i)
		}
	}
	if len(cand) < 2 {
		return nil
	}

	byTier := make(map[int][]int)
	minTier := -1
	for _, i := range cand {
		t := tierOf(metas[i].Size)
		byTier[t] = append(byTier[t], i)
		if len(byTier[t]) >= fanIn && (minTier < 0 || t < minTier) {
			minTier = t
		}
	}
	pool := cand
	if minTier >= 0 {
		pool = byTier[minTier]
	} else if !force {
		return nil
	}

	// Merge the smallest members first (ties: older table first, i.e. the
	// larger index in the newest-first ordering) — smallest-first keeps each
	// round's byte cost minimal for the same table-count reduction.
	sort.Slice(pool, func(a, b int) bool {
		if metas[pool[a]].Size != metas[pool[b]].Size {
			return metas[pool[a]].Size < metas[pool[b]].Size
		}
		return pool[a] > pool[b]
	})
	n := fanIn
	if n > len(pool) {
		n = len(pool)
	}
	if n < 2 {
		return nil
	}
	picked := append([]int(nil), pool[:n]...)
	sort.Ints(picked)
	return picked
}

// pickAll is Store.Compact's picker: every table in one round, but only
// when none is already being compacted.
func pickAll(metas []tableMeta) []int {
	if len(metas) < 2 {
		return nil
	}
	picked := make([]int, 0, len(metas))
	for i, m := range metas {
		if m.Busy {
			return nil
		}
		picked = append(picked, i)
	}
	return picked
}

// isBottom reports whether the sorted picked indices form the complete tail
// of a table list of length n — the condition under which no unmerged table
// can hold data older than the inputs, making tombstone dropping safe.
func isBottom(picked []int, n int) bool {
	for i, idx := range picked {
		if idx != n-len(picked)+i {
			return false
		}
	}
	return len(picked) > 0
}

// CompactionGC describes what one compaction round of this store garbage-
// collected, for the PostCompact hook. Dropped holds (a sample of) the
// cells that were physically removed: the versions below each key's newest
// at or below the GC horizon, and (bottom rounds only) retired tombstones.
// Diff-Index feeds the dropped base *put* cells to the index manager, which
// validates exactly the index entries those old values point to — a
// piggybacked cleanse that repairs staleness for free as part of merge I/O.
type CompactionGC struct {
	// Dropped is a sample of the garbage-collected cells (cloned; safe to
	// retain). Capped at gcSampleCap per round; Truncated marks overflow.
	Dropped   []kv.Cell
	Truncated bool
	// Bottom reports whether the round compacted the store's bottom tier
	// (inputs were the complete tail), i.e. tombstones were dropped.
	Bottom bool
}

// gcSampleCap bounds the per-round GC sample handed to PostCompact hooks.
const gcSampleCap = 4096

// RegisterPostCompact adds a hook invoked after each completed compaction
// round, from the compaction goroutine with no store locks held. Hooks must
// be registered before compactions start (mirroring RegisterPreFlush).
func (s *Store) RegisterPostCompact(hook func(CompactionGC)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.postCompact = append(s.postCompact, hook)
}

// errNoClaim distinguishes "nothing to compact" from a real failure.
var errNoClaim = errors.New("lsm: no claimable compaction inputs")

// claimLocked picks a round's inputs and marks them busy. Called with
// compMu held; takes s.mu.RLock internally (lock order: compMu → mu).
// Returns errNoClaim when no rule fires and ErrClosed on a closed store.
func (s *Store) claimLocked(force, all bool) ([]*tableHandle, bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	tables := make([]*tableHandle, len(s.tables))
	copy(tables, s.tables)
	s.mu.RUnlock()

	metas := make([]tableMeta, len(tables))
	for i, h := range tables {
		_, busy := s.compBusy[h]
		metas[i] = tableMeta{Size: h.r.Size(), Busy: busy}
	}
	var picked []int
	if all {
		picked = pickAll(metas)
	} else {
		picked = pickTiered(metas, s.opts.CompactionFanIn, force)
	}
	if picked == nil {
		return nil, false, errNoClaim
	}
	inputs := make([]*tableHandle, len(picked))
	for i, idx := range picked {
		h := tables[idx]
		h.acquire()
		s.compBusy[h] = struct{}{}
		inputs[i] = h
	}
	return inputs, isBottom(picked, len(metas)), nil
}

// unclaimLocked releases a round's claim: busy marks and the compaction's
// own table references. Called with compMu held.
func (s *Store) unclaimLocked(inputs []*tableHandle) {
	for _, h := range inputs {
		delete(s.compBusy, h)
		h.release()
	}
}

// recordCompactionError surfaces a failed background round through the
// error counter and the last-error field.
// ErrClosed is not an error: it just means the store shut down mid-round.
func (s *Store) recordCompactionError(err error) {
	if err == nil || errors.Is(err, ErrClosed) {
		return
	}
	s.compErrors.Inc()
	s.compMu.Lock()
	s.compLastErr = err.Error()
	s.compMu.Unlock()
}

// maxConcurrentCompactions bounds the compaction rounds one store runs at
// once (each round works on a disjoint table set, so rounds never conflict).
const maxConcurrentCompactions = 2

// maybeScheduleCompaction starts background compaction workers, up to
// maxConcurrentCompactions, each seeded with a claimed round. Workers keep
// claiming follow-up rounds until the picker finds nothing, then exit.
// Unlike the old single-flight scheduler, a failed round's error is
// recorded (stats + metrics) instead of being silently discarded.
func (s *Store) maybeScheduleCompaction() {
	for {
		s.compMu.Lock()
		if s.compWorkers >= maxConcurrentCompactions {
			s.compMu.Unlock()
			return
		}
		inputs, bottom, err := s.claimLocked(false, false)
		if err != nil {
			s.compMu.Unlock()
			return
		}
		s.compWorkers++
		s.compRunning++
		s.compMu.Unlock()
		s.bg.Add(1)
		go s.compactWorker(inputs, bottom)
	}
}

func (s *Store) compactWorker(inputs []*tableHandle, bottom bool) {
	defer s.bg.Done()
	for {
		err := s.compactRound(inputs, bottom)
		if err != nil {
			s.recordCompactionError(err)
		}
		s.compMu.Lock()
		s.unclaimLocked(inputs)
		s.compRunning--
		if err == nil {
			var cerr error
			if inputs, bottom, cerr = s.claimLocked(false, false); cerr == nil {
				s.compRunning++
				s.compCond.Broadcast()
				s.compMu.Unlock()
				continue
			}
		}
		s.compWorkers--
		s.compCond.Broadcast()
		s.compMu.Unlock()
		return
	}
}

// CompactOnce synchronously runs a single tiered compaction round, forced:
// with no full tier it merges the fan-in smallest idle tables. It reports whether a round ran:
// false with a nil error means there was nothing worth merging.
func (s *Store) CompactOnce() (bool, error) {
	s.compMu.Lock()
	inputs, bottom, err := s.claimLocked(true, false)
	if err != nil {
		s.compMu.Unlock()
		if errors.Is(err, errNoClaim) {
			return false, nil
		}
		return false, err
	}
	s.compRunning++
	s.compMu.Unlock()

	rerr := s.compactRound(inputs, bottom)
	s.compMu.Lock()
	s.unclaimLocked(inputs)
	s.compRunning--
	s.compCond.Broadcast()
	s.compMu.Unlock()
	return true, rerr
}

// Compact runs a major compaction: every live SSTable is merged into one
// (the paper's "C1, C2 and C3 are compacted into C1'", §2.1), with full
// version GC and tombstone dropping. It waits for in-flight background
// rounds first so it can claim the whole table list. Kept as the explicit
// administrative entry point; steady-state merging is the incremental
// tiered engine above.
func (s *Store) Compact() error {
	s.compMu.Lock()
	for s.compRunning > 0 {
		s.compCond.Wait()
	}
	inputs, _, err := s.claimLocked(true, true)
	if err != nil {
		s.compMu.Unlock()
		if errors.Is(err, errNoClaim) {
			return nil // fewer than two tables: nothing to merge
		}
		return err
	}
	s.compRunning++
	s.compMu.Unlock()

	// A claim-all is by construction the complete tail: bottom round.
	rerr := s.compactRound(inputs, true)
	s.compMu.Lock()
	s.unclaimLocked(inputs)
	s.compRunning--
	s.compCond.Broadcast()
	s.compMu.Unlock()
	return rerr
}

// WaitCompactions blocks until no compaction round or worker is active.
// Benchmarks and tests use it to measure completed work; it makes no
// guarantee that new rounds won't start afterwards.
func (s *Store) WaitCompactions() {
	s.compMu.Lock()
	for s.compRunning > 0 || s.compWorkers > 0 {
		s.compCond.Wait()
	}
	s.compMu.Unlock()
}

// compactRound merges the claimed inputs into one output table and installs
// it in their place, under the store's one version-GC rule (DESIGN.md §13).
// It first raises the GC horizon H to at least its inputs' max timestamp,
// before anything is trimmed, so no reader sees the output with an older H.
// Per user key it then keeps every version newer than H plus the newest at
// or below it, which is exact for every read at or above H. That newest
// version, when a tombstone, is dropped (with what it masks) only when
// bottom is true (inputs are the complete tail) and the store does not
// retain tombstones; anywhere else it keeps masking older tables. The
// output is written, stamped with H, even when every cell is dropped, so H
// survives a reopen.
func (s *Store) compactRound(inputs []*tableHandle, bottom bool) error {
	var bytesRead int64
	var inputMax kv.Timestamp
	for _, h := range inputs {
		bytesRead += h.r.Size()
		inputMax = max(inputMax, h.r.MaxTimestamp())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	hooks := s.postCompact
	outNum := s.nextFile
	s.nextFile++
	s.horizon = max(s.horizon, inputMax)
	horizon := s.horizon
	s.mu.Unlock()

	gc := CompactionGC{Bottom: bottom}
	dropCell := func(c kv.Cell) {
		s.compGCCells.Inc()
		if len(hooks) == 0 {
			return
		}
		if len(gc.Dropped) >= gcSampleCap {
			gc.Truncated = true
			return
		}
		gc.Dropped = append(gc.Dropped, c.Clone())
	}

	out, err := s.writeTable(outNum, horizon, func(w *sstable.Writer) error {
		iters := make([]internalIterator, len(inputs))
		for i, h := range inputs {
			iters[i] = h.r.Iterator()
		}
		merged := newMergeIterator(iters)
		var curUser []byte
		decided := false // the key's newest version at or below H is behind us
		for merged.SeekToFirst(); merged.Valid(); merged.Next() {
			ikey := merged.InternalKey()
			if user := kv.InternalUserKey(ikey); curUser == nil || string(user) != string(curUser) {
				curUser = append(curUser[:0], user...)
				decided = false
			}
			c := merged.Cell()
			if c.Ts <= horizon {
				if decided {
					dropCell(c)
					continue
				}
				decided = true
				if c.Tombstone() && bottom && !s.opts.RetainTombstones {
					// Nothing older exists outside the inputs: the marker has
					// done its job and can be retired.
					s.compTombstones.Inc()
					dropCell(c)
					continue
				}
			}
			if err := w.Add(ikey, c.Value); err != nil {
				return err
			}
		}
		return merged.Err()
	})
	if err != nil {
		return err
	}
	// Install: splice the inputs out of the table list and put the output at
	// the newest input's position. Inputs are located by identity — flushes
	// prepending new tables or sibling rounds splicing elsewhere cannot
	// disturb a claimed (busy) input, so all of them are present unless the
	// store closed underneath us.
	inputSet := make(map[*tableHandle]struct{}, len(inputs))
	for _, h := range inputs {
		inputSet[h] = struct{}{}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		out.discard()
		return ErrClosed
	}
	newTables := make([]*tableHandle, 0, len(s.tables)-len(inputs)+1)
	matched, inserted := 0, false
	for _, h := range s.tables {
		if _, ok := inputSet[h]; ok {
			matched++
			if !inserted {
				newTables = append(newTables, out)
				inserted = true
			}
			continue
		}
		newTables = append(newTables, h)
	}
	if matched != len(inputs) {
		s.mu.Unlock()
		out.discard()
		return errors.New("lsm: compaction inputs vanished from table list")
	}
	s.tables = newTables
	s.mu.Unlock()

	for _, h := range inputs {
		h.dropped.Store(true)
		h.release() // the store's own reference
	}

	s.compRounds.Inc()
	s.compBytesRead.Add(bytesRead)
	s.compBytesWritten.Add(out.r.Size())

	if len(hooks) > 0 && (len(gc.Dropped) > 0 || gc.Truncated) {
		for _, hook := range hooks {
			hook(gc)
		}
	}
	return nil
}
