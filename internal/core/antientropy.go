package core

import (
	"bytes"
	"fmt"
	"slices"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

// Anti-entropy index verification: the background check that a global index
// actually delivers the contract its scheme promises. Diff-Index's schemes
// bound WHERE divergence can appear — sync-full leaves none, sync-insert
// leaves only stale entries (repaired lazily on read), async schemes leave a
// convergence window (§6.1) — but bugs, lost queues or disk corruption can
// breach those bounds silently: an index read simply misses rows. The sweep
// compares the index against the base table wholesale and classifies every
// divergence against the §6.1 contracts:
//
//   - a base row whose expected entry is absent from the index breaks
//     index-complete (reads silently miss the row) — "missing";
//   - an index entry no base row justifies breaks index-exact (reads return
//     phantom rows, modulo the double-check of sync-insert) — "stale".
//
// The comparison is one enumerate-and-diff pass: each side is enumerated
// once, one MultiScan RPC per region, and the two pair sets are diffed in
// memory.
// Because the two sides are scanned without a common snapshot, in-flight
// writes and queued async updates can masquerade as divergence; every
// candidate is therefore re-verified with point reads before it is counted
// or repaired, and candidates that re-verify clean are reported as transient.

// IndexVerifyReport summarizes one index's anti-entropy sweep.
type IndexVerifyReport struct {
	Table string
	Index string
	// Scheme is the index's maintenance scheme.
	Scheme Scheme
	// Missing / Stale are CONFIRMED violations: expected entries absent from
	// the index (index-complete breach) and index entries without a matching
	// base row (index-exact breach).
	Missing int
	Stale   int
	// Transient counts candidates that re-verified clean — in-flight or
	// queued-async updates caught mid-propagation, not violations.
	Transient int
	// Repaired counts violations fixed this sweep (missing entries inserted,
	// stale entries deleted, at the timestamps reconcile's §4.3 rule gives).
	Repaired int
}

// Healthy reports whether the sweep confirmed zero violations.
func (r IndexVerifyReport) Healthy() bool { return r.Missing == 0 && r.Stale == 0 }

func (r IndexVerifyReport) String() string {
	return fmt.Sprintf("%s[%s]: %d missing, %d stale, %d transient, %d repaired",
		r.Index, r.Scheme, r.Missing, r.Stale, r.Transient, r.Repaired)
}

// VerifyIndexes runs one anti-entropy sweep over every GLOBAL index of a
// table, repairing confirmed violations through the reconcile engine. Local
// indexes are skipped: their entries live in the same region as their rows
// and are maintained inside the row's write, so there is no cross-table
// state to diverge.
func (m *Manager) VerifyIndexes(cl *cluster.Client, table string) ([]IndexVerifyReport, error) {
	var reports []IndexVerifyReport
	for _, def := range m.catalog.IndexesOn(table) {
		if def.Local {
			continue
		}
		rep, err := m.verifyIndex(cl, def)
		if err != nil {
			return reports, fmt.Errorf("core: verify %s: %w", def.Name(), err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func (m *Manager) verifyIndex(cl *cluster.Client, def IndexDef) (IndexVerifyReport, error) {
	rep := IndexVerifyReport{Table: def.Table, Index: def.Name(), Scheme: def.Scheme}

	// Enumerate each side once and diff the pair sets.
	basePairs, err := expectedPairs(cl, def)
	if err != nil {
		return rep, err
	}
	var idxPairs []IndexEntryPair
	err = scanRegions(cl, def.Name(), cluster.ByKey, func(cells []lsm.ScanResult) error {
		pairs, err := indexPairs(def, cells)
		idxPairs = append(idxPairs, pairs...)
		return err
	})
	if err != nil {
		return rep, err
	}
	inBase := make(map[string]bool, len(basePairs))
	for _, p := range basePairs {
		inBase[string(kv.IndexKey(p.Value, p.Row))] = true
	}
	inIndex := make(map[string]bool, len(idxPairs))
	var stale, missing []IndexEntryPair
	for _, p := range idxPairs {
		k := string(kv.IndexKey(p.Value, p.Row))
		inIndex[k] = true
		if !inBase[k] {
			stale = append(stale, p)
		}
	}
	for _, p := range basePairs {
		if !inIndex[string(kv.IndexKey(p.Value, p.Row))] {
			missing = append(missing, p)
		}
	}

	// Re-verify and repair. The two enumeration scans above are not a
	// snapshot, so a write racing the sweep shows up as a candidate; the
	// reconcile engine's point reads see the current state, report those as
	// transient, and repair only what they confirm.
	res, err := m.reconcile(cl, def, srcVerify, stale, missing)
	rep.Missing, rep.Stale, rep.Transient, rep.Repaired = res.Missing, res.Stale, res.Transient, res.Repaired
	return rep, err
}

// IndexEntryPair is one (indexValue, row) pair of a global index, with the
// timestamp repairs must carry: for an index-side entry the entry's own
// timestamp, for a base-side pair the newest timestamp among the row's
// indexed columns (the §4.3 same-timestamp rule).
type IndexEntryPair struct {
	Value []byte
	Row   []byte
	Ts    kv.Timestamp
}

// indexPairs decodes scanned index-table cells into their pairs.
func indexPairs(def IndexDef, cells []lsm.ScanResult) ([]IndexEntryPair, error) {
	out := make([]IndexEntryPair, len(cells))
	for i, c := range cells {
		val, row, err := kv.SplitIndexKey(c.Key)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt index key in %s: %w", def.Name(), err)
		}
		out[i] = IndexEntryPair{Value: val, Row: row, Ts: c.Ts}
	}
	return out, nil
}

// expectedPairs enumerates the pairs the base table's rows should have in
// def: each row whose indexed columns are all present derives its (value,
// row, maxTs) pair from its cells.
func expectedPairs(cl *cluster.Client, def IndexDef) ([]IndexEntryPair, error) {
	var out []IndexEntryPair
	err := scanRegions(cl, def.Table, cluster.ByRow, func(cells []lsm.ScanResult) (err error) {
		out, err = appendBasePairs(out, cells, def.Columns)
		return err
	})
	return out, err
}

// scanRegions reads a whole table one region per MultiScan, so that only
// one region's cells are held at a time, and hands each region's cells to
// add in key order.
func scanRegions(cl *cluster.Client, table string, route cluster.ScanRoute, add func([]lsm.ScanResult) error) error {
	regions, err := cl.Cluster().Master.RegionsOf(table)
	if err != nil {
		return err
	}
	for _, ri := range regions {
		spec := cluster.ScanSpec{Start: ri.Start, End: ri.End}
		if route == cluster.ByRow {
			spec = cluster.RowRangeSpec(ri.Start, ri.End)
		}
		res, err := cl.MultiScan(table, []cluster.ScanSpec{spec}, kv.MaxTimestamp, 0)
		if err == nil {
			err = add(res[0])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// appendBasePairs derives the pairs of base-table cells in store-key order,
// where a row's cells are contiguous.
func appendBasePairs(out []IndexEntryPair, cells []lsm.ScanResult, columns []string) ([]IndexEntryPair, error) {
	cur := IndexEntryPair{}
	cols := make(map[string][]byte, len(columns))
	flush := func() {
		if val, ok := kv.IndexValueFromColumns(columns, cols); ok {
			out = append(out, IndexEntryPair{Value: val, Row: cur.Row, Ts: cur.Ts})
		}
		clear(cols)
		cur = IndexEntryPair{}
	}
	for i, c := range cells {
		row, col, err := kv.SplitBaseKey(c.Key)
		if err != nil {
			return nil, err
		}
		if i > 0 && !bytes.Equal(row, cur.Row) {
			flush()
		}
		cur.Row = row
		if slices.Contains(columns, string(col)) {
			cols[string(col)] = c.Value
			cur.Ts = max(cur.Ts, c.Ts)
		}
	}
	if len(cells) > 0 {
		flush()
	}
	return out, nil
}
