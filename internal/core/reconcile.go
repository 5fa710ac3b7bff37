package core

import (
	"bytes"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
)

// Index reconciliation: the one place outside live maintenance
// (buildIndexMutations/applyMutations) that decides what an index should
// hold for a row and writes the difference. The base table is the truth and
// the index a derivable cache of it, so every repair is the same step —
// Algorithm 2's double-check-and-clean — fed by four enumerators: one
// sync-insert read's hits (read.go), the pairs only one side of a verify
// sweep holds (antientropy.go), the base versions a merge round dropped
// (piggyback.go), every pair of a table an index is created over
// (CreateIndex).
//
// One timestamp rule (§4.3) makes repairs idempotent under redelivery and
// ordered against live updates: a stale entry is deleted at the entry's OWN
// timestamp, so an entry re-inserted later by a live update survives; a
// missing entry is inserted at the newest timestamp among the row's INDEXED
// columns — the timestamp live maintenance gave it, or would have — so the
// delete at t_new − δ of the row's next update still masks it.

// The source label of the reconcile counters: which enumerator fed the engine.
const (
	srcRead       = "read"
	srcVerify     = "verify"
	srcCompaction = "compaction"
	srcBackfill   = "backfill"
)

// reconcileCounters is one source's share of the one counter family,
// diffindex_reconcile_{checked,confirmed,repaired}_total{source,kind}:
// candidates re-checked, differences confirmed, cells durably applied.
type reconcileCounters struct{ stale, missing reconcileKindCounters }

type reconcileKindCounters struct{ checked, confirmed, repaired *metrics.Counter }

// newReconcileCounters resolves the family once, by source: the read path
// bumps it on every sync-insert read.
func newReconcileCounters(reg *metrics.Registry) map[string]reconcileCounters {
	out := make(map[string]reconcileCounters)
	for _, source := range []string{srcRead, srcVerify, srcCompaction, srcBackfill} {
		of := func(kind string) reconcileKindCounters {
			c := func(stat string) *metrics.Counter {
				return reg.Counter("diffindex_reconcile_"+stat+"_total", metrics.L("source", source), metrics.L("kind", kind))
			}
			return reconcileKindCounters{c("checked"), c("confirmed"), c("repaired")}
		}
		out[source] = reconcileCounters{stale: of("stale"), missing: of("missing")}
	}
	return out
}

// reconcileChunk bounds the candidates re-checked in one wave and the cells
// shipped in one MultiApply, so a sweep over a whole table costs bounded
// RPCs. A read's hits are one wave whatever their number: its latency is
// round trips, and its limit already bounds the batch.
const reconcileChunk = 512

// reconcileResult reports what one reconcile call found and did.
type reconcileResult struct {
	// Live[i] reports that stale candidate i is not stale: the base row
	// currently produces its value.
	Live []bool
	// Stale and Missing count CONFIRMED divergence: entries the index holds
	// that no base row justifies, and entries the base table calls for that
	// the index lacks. Repaired counts the cells durably applied for them.
	Stale, Missing, Repaired int
	// Transient counts candidates the re-check cleared: the other side
	// caught up between enumeration and now.
	Transient int
	// CheckDur and RepairDur are the time spent re-checking and applying.
	CheckDur, RepairDur time.Duration
}

// candState is what the base table says now about one candidate.
type candState struct {
	// match: the row's indexed columns produce the candidate's value;
	// baseTs is the newest timestamp among those columns.
	match  bool
	baseTs kv.Timestamp
}

// reconcile re-checks candidates against current state and repairs the
// confirmed differences. stale lists (value, row, ts) entries the index holds
// — or, with a zero ts, may hold: the engine then reads the index for the
// entry and its timestamp, and an absent entry is a no-op. missing lists
// pairs the base table calls for; their ts is ignored, the rule above
// derives it from the re-check's own base read. Enumeration is never a
// snapshot, so nothing is written on the enumerator's word alone, and every
// entry's timestamp is read BEFORE the base row that judges it.
//
// The Table 2 counters (base-read, index-put, index-del) count every
// source's work except the compaction hook's, which runs inside background
// merge I/O rather than a client-visible request.
func (m *Manager) reconcile(cl *cluster.Client, def IndexDef, source string, stale, missing []IndexEntryPair) (reconcileResult, error) {
	res := reconcileResult{Live: make([]bool, len(stale))}
	countIO := source != srcCompaction
	counters := m.reconcileCounters[source]
	// Index entries live in the index table under v ⊕ k and route by that
	// key, or — local index — in the row's own base region under a reserved
	// key space, routed by the row.
	indexTable := def.Name()
	entrySpec := func(p IndexEntryPair) cluster.GetSpec {
		return cluster.GetSpec{Key: kv.IndexKey(p.Value, p.Row)}
	}
	if def.Local {
		indexTable = def.Table
		entrySpec = func(p IndexEntryPair) cluster.GetSpec {
			return cluster.GetSpec{Route: p.Row, Key: kv.LocalIndexKey(def.Name(), p.Value, p.Row)}
		}
	}

	wave := func(cands []IndexEntryPair, isMissing bool, live []bool) error {
		count, confirmed := counters.stale, &res.Stale
		if isMissing {
			count, confirmed = counters.missing, &res.Missing
		}
		checkStart := time.Now()
		// The index side first: an entry becomes visible only after the base
		// put that calls for it, so a base row read AFTER the entry proves the
		// entry stale at that timestamp if it no longer produces its value.
		// Base first, a live put returning the row to the candidate's value
		// between the reads would hand the delete the live entry's timestamp.
		// A region's MultiGet takes its one snapshot when its RPC starts, so
		// the base batch below still reads after this index read returned.
		held := make([]kv.Timestamp, len(cands))
		var lookups []cluster.GetSpec
		var lookupOf []int
		for i, p := range cands {
			if !isMissing && p.Ts != 0 {
				held[i] = p.Ts // the enumerator read the entry itself
				continue
			}
			lookups = append(lookups, entrySpec(p))
			lookupOf = append(lookupOf, i)
		}
		got, err := cl.MultiGet(indexTable, lookups, kv.MaxTimestamp)
		if err != nil {
			return err
		}
		for j, i := range lookupOf {
			if got[j].Found {
				held[i] = got[j].Cell.Ts
			}
		}
		state, err := doubleCheckBatch(cl, def, cands)
		if err != nil {
			return err
		}
		if countIO {
			m.Counters.BaseRead.Add(int64(len(cands)))
		}
		res.CheckDur += time.Since(checkStart)
		count.checked.Add(int64(len(cands)))

		var cells []kv.Cell
		for i, p := range cands {
			var cell kv.Cell
			switch st := state[i]; {
			case !isMissing && st.match:
				live[i] = true
				res.Transient++
				continue
			case !isMissing && held[i] != 0:
				cell = kv.Cell{Ts: held[i], Kind: kv.KindDelete}
			case !isMissing:
				continue // the index does not hold the entry: nothing to clean
			case st.match && held[i] == 0:
				cell = kv.Cell{Ts: st.baseTs, Kind: kv.KindPut}
			default:
				res.Transient++
				continue
			}
			cell.Key = entrySpec(p).Key
			cells = append(cells, cell)
		}
		if len(cells) == 0 {
			return nil
		}
		*confirmed += len(cells)
		count.confirmed.Add(int64(len(cells)))

		repairStart := time.Now()
		err = cl.MultiApply(indexTable, cells)
		res.RepairDur += time.Since(repairStart)
		if err != nil {
			return err
		}
		res.Repaired += len(cells)
		count.repaired.Add(int64(len(cells)))
		if countIO {
			m.countIndexCells(cells, false)
		}
		return nil
	}

	chunk := reconcileChunk
	if source == srcRead {
		chunk = max(len(stale), 1)
	}
	for lo := 0; lo < len(stale); lo += chunk {
		if err := wave(stale[lo:min(lo+chunk, len(stale))], false, res.Live[lo:]); err != nil {
			return res, err
		}
	}
	for lo := 0; lo < len(missing); lo += chunk {
		if err := wave(missing[lo:min(lo+chunk, len(missing))], true, nil); err != nil {
			return res, err
		}
	}
	return res, nil
}

// doubleCheckBatch is the check half of Algorithm 2 for a whole batch at
// once: every candidate's indexed base columns ship in ONE region-grouped
// MultiGet wave (one concurrent RPC per destination region), and each
// candidate's value is compared with what its row produces now.
func doubleCheckBatch(cl *cluster.Client, def IndexDef, cands []IndexEntryPair) ([]candState, error) {
	colBytes := make([][]byte, len(def.Columns))
	for j, c := range def.Columns {
		colBytes[j] = []byte(c)
	}
	specs := make([]cluster.GetSpec, 0, len(cands)*len(def.Columns))
	for _, p := range cands {
		for _, c := range colBytes {
			specs = append(specs, cluster.GetSpec{Route: p.Row, Key: kv.BaseKey(p.Row, c)})
		}
	}
	got, err := cl.MultiGet(def.Table, specs, kv.MaxTimestamp)
	if err != nil {
		return nil, err
	}
	out := make([]candState, len(cands))
	for i, p := range cands {
		cols := make(map[string][]byte, len(def.Columns))
		for j, c := range def.Columns {
			if r := got[i*len(def.Columns)+j]; r.Found {
				cols[c] = r.Cell.Value
				out[i].baseTs = max(out[i].baseTs, r.Cell.Ts)
			}
		}
		val, ok := indexValue(def, cols)
		out[i].match = ok && bytes.Equal(val, p.Value)
	}
	return out, nil
}
