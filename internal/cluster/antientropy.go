package cluster

import (
	"diffindex/internal/kv"
)

// Anti-entropy support: enumerate both sides of a global index.
//
// A global index is healthy when the set of (indexValue, row) pairs derivable
// from the base table equals the set of entries stored in the index table.
// The sweep enumerates both sets, one scan per region of each table, and the
// caller diffs them. Deriving a base row's pair happens server-side, so only
// pairs cross the network, never the rows' other columns.
//
// Presence and value equality define the index-complete / index-exact
// contracts (§6.1); timestamps only matter when repairing, so the
// enumeration RPCs return them alongside each pair.

// IndexEntryPair is one (indexValue, row) pair surfaced by anti-entropy
// enumeration, with the timestamp repairs must carry: for an index-side entry
// the entry's own timestamp, for a base-side pair the newest timestamp among
// the row's indexed columns (the §4.3 same-timestamp rule).
type IndexEntryPair struct {
	Value []byte
	Row   []byte
	Ts    kv.Timestamp
}

// --- Server-side RPCs -------------------------------------------------------

// indexEntries returns an index-table region's (value, row, ts) entries in
// store-key range [lo, hi) visible at ts.
func (s *RegionServer) indexEntries(regionID string, lo, hi []byte, ts kv.Timestamp) ([]IndexEntryPair, error) {
	region, err := s.region(regionID)
	if err != nil {
		return nil, err
	}
	results, err := region.store.Scan(lo, hi, ts, 0)
	if err != nil {
		return nil, mapStoreErr(err)
	}
	out := make([]IndexEntryPair, 0, len(results))
	for _, res := range results {
		val, row, err := kv.SplitIndexKey(res.Key)
		if err != nil {
			return nil, err
		}
		out = append(out, IndexEntryPair{
			Value: append([]byte(nil), val...),
			Row:   append([]byte(nil), row...),
			Ts:    res.Ts,
		})
	}
	return out, nil
}

// baseIndexPairs scans a base-table region's store keys in [lo, hi) at ts and
// derives the (value, row, maxTs) index pair of every row whose indexed
// columns are all present, invoking emit for each. Cells arrive in store-key
// order, so a row's columns are contiguous.
func baseIndexPairs(region *Region, lo, hi []byte, columns []string, ts kv.Timestamp, emit func(val, row []byte, maxTs kv.Timestamp)) error {
	results, err := region.store.Scan(lo, hi, ts, 0)
	if err != nil {
		return mapStoreErr(err)
	}
	var curRow []byte
	var curCols map[string][]byte
	var curMax kv.Timestamp
	colSet := make(map[string]bool, len(columns))
	for _, c := range columns {
		colSet[c] = true
	}
	flush := func() {
		if curCols == nil {
			return
		}
		if val, ok := kv.IndexValueFromColumns(columns, curCols); ok {
			emit(val, curRow, curMax)
		}
		curRow, curCols, curMax = nil, nil, 0
	}
	for _, res := range results {
		row, col, err := kv.SplitBaseKey(res.Key)
		if err != nil {
			return err
		}
		if curCols == nil || string(row) != string(curRow) {
			flush()
			curRow = append([]byte(nil), row...)
			curCols = make(map[string][]byte, len(columns))
		}
		if colSet[string(col)] {
			curCols[string(col)] = res.Value
			if res.Ts > curMax {
				curMax = res.Ts
			}
		}
	}
	flush()
	return nil
}

// baseEntries returns the expected (value, row, maxColumnTs) index pairs of
// a base-table region's rows in store-key range [lo, hi) (at or above
// kv.BaseDataStart) for an index on columns.
func (s *RegionServer) baseEntries(regionID string, lo, hi []byte, columns []string, ts kv.Timestamp) ([]IndexEntryPair, error) {
	region, err := s.region(regionID)
	if err != nil {
		return nil, err
	}
	var out []IndexEntryPair
	err = baseIndexPairs(region, lo, hi, columns, ts, func(val, row []byte, maxTs kv.Timestamp) {
		out = append(out, IndexEntryPair{
			Value: append([]byte(nil), val...),
			Row:   append([]byte(nil), row...),
			Ts:    maxTs,
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Client-side fan-out ----------------------------------------------------

// IndexTableEntries enumerates an index table's entries, one RPC per region,
// concatenated in routing order. Raw (index) tables route by store key, so
// each region enumerates its clamped store-key slice exactly once.
func (cl *Client) IndexTableEntries(table string, ts kv.Timestamp) ([]IndexEntryPair, error) {
	var out []IndexEntryPair
	err := cl.forEachRegion(table, nil, nil, func(ri RegionInfo, lo, hi []byte, s *RegionServer) (bool, error) {
		part, err := s.indexEntries(ri.ID, lo, hi, ts)
		if err != nil {
			return false, err
		}
		out = append(out, part...)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// baseStoreBounds translates a base-table region's clamped ROUTING bounds
// (row keys) into store-key bounds that exclude the reserved local-index key
// space below kv.BaseDataStart.
func baseStoreBounds(lo, hi []byte) (storeLo, storeHi []byte) {
	storeLo = kv.BaseDataStart
	if len(lo) > 0 {
		storeLo = kv.RowPrefix(lo)
	}
	if hi != nil {
		storeHi = kv.RowPrefix(hi)
	}
	return storeLo, storeHi
}

// BaseTableEntries enumerates the index pairs a base table's rows SHOULD
// have for an index on columns, one RPC per region, concatenated in routing
// order.
func (cl *Client) BaseTableEntries(table string, columns []string, ts kv.Timestamp) ([]IndexEntryPair, error) {
	var out []IndexEntryPair
	err := cl.forEachRegion(table, nil, nil, func(ri RegionInfo, lo, hi []byte, s *RegionServer) (bool, error) {
		storeLo, storeHi := baseStoreBounds(lo, hi)
		part, err := s.baseEntries(ri.ID, storeLo, storeHi, columns, ts)
		if err != nil {
			return false, err
		}
		out = append(out, part...)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
