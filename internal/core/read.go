package core

import (
	"fmt"
	"slices"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
)

// IndexHit is one index lookup result: a base-table row key and the
// timestamp of the index entry that produced it.
type IndexHit struct {
	Row []byte
	Ts  kv.Timestamp
}

// GetByIndex looks up the base-table row keys whose indexed column(s) equal
// value — the client-side getByIndex API (§7). For a composite index, value
// must be the composite encoding of all column values (see IndexValueOf).
//
// Consistency depends on the index's scheme: sync-full results are causal
// consistent; sync-insert results are made consistent by the double-check-
// and-clean of Algorithm 2 (stale entries are deleted as they are found);
// async results are eventually consistent and may be stale (§5.1) — session
// consistency is layered on top by Session.GetByIndex.
func (m *Manager) GetByIndex(cl *cluster.Client, table string, columns []string, value []byte) ([]IndexHit, error) {
	def, ok := m.catalog.Find(table, columns...)
	if !ok {
		return nil, fmt.Errorf("core: no index on %s(%v)", table, columns)
	}
	tr := m.cluster.Tracer().Start("index-get", table)
	defer m.cluster.Tracer().Finish(tr)
	if def.Local {
		lo, hi := kv.LocalIndexValueRange(def.Name(), value, value)
		return m.readLocalIndex(cl, def, lo, hi, 0, tr)
	}
	prefix := kv.IndexValuePrefix(value)
	return m.readIndex(cl, def, prefix, kv.PrefixSuccessor(prefix), 0, tr)
}

// RangeByIndex returns rows whose indexed value v satisfies low ≤ v ≤ high
// (inclusive; nil high = unbounded), up to limit hits — the range-query path
// of §8.2 ("Range query with index"). Results arrive in index-value order.
func (m *Manager) RangeByIndex(cl *cluster.Client, table string, columns []string, low, high []byte, limit int) ([]IndexHit, error) {
	def, ok := m.catalog.Find(table, columns...)
	if !ok {
		return nil, fmt.Errorf("core: no index on %s(%v)", table, columns)
	}
	tr := m.cluster.Tracer().Start("index-range", table)
	defer m.cluster.Tracer().Finish(tr)
	if def.Local {
		lo, hi := kv.LocalIndexValueRange(def.Name(), low, high)
		return m.readLocalIndex(cl, def, lo, hi, limit, tr)
	}
	lo, hi := kv.IndexValueRange(low, high)
	return m.readIndex(cl, def, lo, hi, limit, tr)
}

// readIndex scans the index table and, for sync-insert, runs Algorithm 2:
// every hit is double-checked against the base table and stale entries are
// deleted from the index (see reconcile). A limited read keeps scanning
// past stale entries: each follow-on scan starts after the last entry
// scanned, until limit hits are live or the range ends.
func (m *Manager) readIndex(cl *cluster.Client, def IndexDef, lo, hi []byte, limit int, tr *metrics.Trace) ([]IndexHit, error) {
	hits := []IndexHit{}
	var scanDur, checkDur, repairDur time.Duration
	checked := false
	defer func() {
		m.stageHist(metrics.StageIndexScan, def.Table).RecordDuration(scanDur)
		tr.AddStage(metrics.StageIndexScan, scanDur)
		if checked {
			m.stageHist(metrics.StageCheck, def.Table).RecordDuration(checkDur)
			tr.AddStage(metrics.StageCheck, checkDur)
		}
		if repairDur > 0 {
			m.stageHist(metrics.StageRepair, def.Table).RecordDuration(repairDur)
			tr.AddStage(metrics.StageRepair, repairDur)
		}
	}()
	for {
		// SR1: read the index table.
		want := limit - len(hits)
		scanStart := time.Now()
		res, err := cl.MultiScan(def.Name(), []cluster.ScanSpec{{Start: lo, End: hi}}, kv.MaxTimestamp, want)
		scanDur += time.Since(scanStart)
		if err != nil {
			return nil, err
		}
		entries := res[0]
		cands, err := indexPairs(def, entries)
		if err != nil {
			return nil, err
		}

		// SR2 and the clean step of Algorithm 2: this read's hits are the
		// reconcile engine's stale candidates. One region-grouped MultiGet
		// wave reads every hit's indexed base columns; entries whose value
		// the row no longer produces are deleted with one Apply per
		// destination region.
		var live []bool
		if def.Scheme == SyncInsert && len(entries) > 0 {
			res, err := m.reconcile(cl, def, srcRead, cands, nil)
			checked = true
			checkDur += res.CheckDur
			repairDur += res.RepairDur
			if err != nil {
				return nil, err
			}
			live = res.Live
		}
		hits = slices.Grow(hits, len(cands))
		for i, c := range cands {
			if live == nil || live[i] {
				hits = append(hits, IndexHit{Row: c.Row, Ts: c.Ts})
			}
		}
		if limit <= 0 || len(hits) >= limit || len(entries) < want {
			break
		}
		// The next scan starts at the first key after the last scanned.
		lo = append(slices.Clip(entries[len(entries)-1].Key), 0)
	}
	m.Counters.IndexRead.Inc()
	return hits, nil
}

// readLocalIndex serves a lookup against a LOCAL index: the same store-key
// scan sent to every region of the base table (§3.1's local-index query
// pattern). Local entries are maintained synchronously inside the row's
// region, so no double check is needed. MultiScan merges the regions'
// entries into index-value order; the limit is pushed down per region, and
// since the global smallest limit entries are always among the union of
// per-region smallest limit entries, its cut is exact.
func (m *Manager) readLocalIndex(cl *cluster.Client, def IndexDef, lo, hi []byte, limit int, tr *metrics.Trace) ([]IndexHit, error) {
	scanStart := time.Now()
	res, err := cl.MultiScan(def.Table, []cluster.ScanSpec{{Start: lo, End: hi, Route: cluster.ToAll}}, kv.MaxTimestamp, limit)
	scanDur := time.Since(scanStart)
	m.stageHist(metrics.StageIndexScan, def.Table).RecordDuration(scanDur)
	tr.AddStage(metrics.StageIndexScan, scanDur)
	if err != nil {
		return nil, err
	}
	m.Counters.IndexRead.Inc()

	hits := make([]IndexHit, 0, len(res[0]))
	for _, e := range res[0] {
		_, row, err := kv.SplitLocalIndexKey(def.Name(), e.Key)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt local index key: %w", err)
		}
		hits = append(hits, IndexHit{Row: append([]byte(nil), row...), Ts: e.Ts})
	}
	return hits, nil
}

// FetchRows resolves index hits to full base rows, preserving hit order.
// Rows deleted between the index read and the fetch are skipped. All hits
// resolve in one MultiScan of their rows — one concurrent RPC per
// destination region instead of one serial GetRow round trip per hit.
func (m *Manager) FetchRows(cl *cluster.Client, table string, hits []IndexHit) ([]cluster.Row, error) {
	rows := make([]cluster.Row, 0, len(hits))
	if len(hits) == 0 {
		return rows, nil
	}
	tr := m.cluster.Tracer().Start("fetch-rows", table)
	defer m.cluster.Tracer().Finish(tr)
	specs := make([]cluster.ScanSpec, len(hits))
	for i, h := range hits {
		specs[i] = cluster.RowSpec(h.Row)
	}
	waveStart := time.Now()
	res, err := cl.MultiScan(table, specs, kv.MaxTimestamp, 0)
	waveDur := time.Since(waveStart)
	m.stageHist(metrics.StageMultiGet, table).RecordDuration(waveDur)
	tr.AddStage(metrics.StageMultiGet, waveDur)
	if err != nil {
		return nil, err
	}
	m.Counters.BaseRead.Add(int64(len(hits)))
	for i, cells := range res {
		cols, err := cluster.RowCols(cells)
		if err != nil {
			return nil, err
		}
		if cols != nil {
			rows = append(rows, cluster.Row{Key: append([]byte(nil), hits[i].Row...), Cols: cols})
		}
	}
	return rows, nil
}

// IndexValueOf computes the index-value bytes for the given column values
// of an index — what GetByIndex expects for composite indexes.
func IndexValueOf(def IndexDef, cols map[string][]byte) ([]byte, bool) {
	return indexValue(def, cols)
}
