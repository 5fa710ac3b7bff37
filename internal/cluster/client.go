package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
)

// Client is the store's client library (§2.2): it caches a copy of the
// partition map and routes each request to the region server hosting the
// key, over the simulated network. On a routing miss (server crashed or
// region moved) it refreshes the map from the master and retries.
type Client struct {
	name    string
	cluster *Cluster

	mu     sync.Mutex
	routes map[string][]RegionInfo

	// fanOut, when positive, overrides DefaultReadFanOut for this client's
	// scatter-gather operations.
	fanOut int

	// tracer mints per-operation traces (shared with the whole cluster).
	tracer *metrics.Tracer
}

// SetFanOut overrides the fan-out width for this client: the bound on
// concurrent per-region RPCs of one batched operation. n ≤ 0 restores
// DefaultReadFanOut; 1 forces the serial behaviour (useful as a baseline).
// Not safe to call concurrently with requests; attach before use.
func (cl *Client) SetFanOut(n int) { cl.fanOut = n }

// NewClient returns a client with the given simnet node name.
func NewClient(c *Cluster, name string) *Client {
	return &Client{name: name, cluster: c, routes: make(map[string][]RegionInfo), tracer: c.tracer}
}

// Name returns the client's node name.
func (cl *Client) Name() string { return cl.name }

// Cluster returns the cluster this client talks to.
func (cl *Client) Cluster() *Cluster { return cl.cluster }

func (cl *Client) regions(table string) ([]RegionInfo, error) {
	cl.mu.Lock()
	cached, ok := cl.routes[table]
	cl.mu.Unlock()
	if ok {
		return cached, nil
	}
	regions, err := cl.cluster.Master.RegionsOf(table)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	cl.routes[table] = regions
	cl.mu.Unlock()
	return regions, nil
}

func (cl *Client) invalidate(table string) {
	cl.mu.Lock()
	delete(cl.routes, table)
	cl.mu.Unlock()
}

const maxRetries = 20

// retriable reports whether a routing error warrants refreshing the cached
// partition map and retrying.
func retriable(err error) bool {
	return errors.Is(err, ErrServerDown) || errors.Is(err, ErrRegionNotFound)
}

// withRegion routes an operation to the region holding the routing key,
// retrying through map refreshes when the region has moved. Retries back
// off exponentially (1 ms … 64 ms) so requests ride out a region split or
// reassignment in progress.
func (cl *Client) withRegion(table string, routingKey []byte, fn func(ri RegionInfo, s *RegionServer) error) error {
	var lastErr error
	backoff := time.Millisecond
	for attempt := 0; attempt < maxRetries; attempt++ {
		regions, err := cl.regions(table)
		if err != nil {
			return err
		}
		ri, ok := regionContaining(regions, routingKey)
		if !ok {
			return fmt.Errorf("cluster: no region for key %q in table %s", routingKey, table)
		}
		server := cl.cluster.Server(ri.Server)
		err = cl.cluster.Net.Call(cl.name, ri.Server, func() error { return fn(ri, server) })
		if retriable(err) {
			cl.invalidate(table)
			lastErr = err
			if len(cl.cluster.LiveServerIDs()) == 0 {
				// Whole-cluster shutdown: nothing to retry against.
				return fmt.Errorf("cluster: no live servers for table %s: %w", table, lastErr)
			}
			time.Sleep(backoff)
			if backoff < 64*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		return err
	}
	return fmt.Errorf("cluster: retries exhausted for table %s: %w", table, lastErr)
}

// Put writes a row's columns, returning the server-assigned timestamp.
func (cl *Client) Put(table string, row []byte, cols map[string][]byte) (kv.Timestamp, error) {
	ts, _, err := cl.put(table, row, cols, false)
	return ts, err
}

// PutWithOld writes a row's columns and additionally returns the previous
// visible values of that row — the session-consistency variant of put
// (§5.2: "the server returns the old value and the new timestamp").
func (cl *Client) PutWithOld(table string, row []byte, cols map[string][]byte) (kv.Timestamp, map[string][]byte, error) {
	return cl.put(table, row, cols, true)
}

func (cl *Client) put(table string, row []byte, cols map[string][]byte, wantOld bool) (kv.Timestamp, map[string][]byte, error) {
	tr := cl.tracer.Start("put", table)
	defer cl.tracer.Finish(tr)
	var ts kv.Timestamp
	var old map[string][]byte
	err := cl.withRegion(table, row, func(ri RegionInfo, s *RegionServer) error {
		var err error
		ts, old, err = s.PutRow(ri.ID, row, cols, wantOld, tr)
		return err
	})
	return ts, old, err
}

// Delete tombstones the given columns of a row (all columns when cols is
// nil), returning the delete timestamp.
func (cl *Client) Delete(table string, row []byte, cols []string) (kv.Timestamp, error) {
	tr := cl.tracer.Start("delete", table)
	defer cl.tracer.Finish(tr)
	var ts kv.Timestamp
	err := cl.withRegion(table, row, func(ri RegionInfo, s *RegionServer) error {
		var err error
		ts, err = s.DeleteRow(ri.ID, row, cols, tr)
		return err
	})
	return ts, err
}

// Get reads one column of a row at the latest timestamp, as a MultiGet of
// one key. ok reports whether the column exists.
func (cl *Client) Get(table string, row []byte, col string) ([]byte, kv.Timestamp, bool, error) {
	return cl.getCol("get", table, row, col, kv.MaxTimestamp, func(s *RegionServer, region string, key []byte, ts kv.Timestamp) (kv.Cell, bool, error) {
		res, err := s.MultiGet(region, [][]byte{key}, ts)
		if err != nil {
			return kv.Cell{}, false, err
		}
		return res[0].Cell, res[0].Found, nil
	})
}

// GetAsOf reads one column of a row as it stood at timestamp ts — any
// timestamp previously returned by Put/Delete qualifies. Unlike a plain read
// at ts (which answers from whatever versions remain), GetAsOf surfaces
// lsm.ErrHistoryTrimmed when the version visible at ts may have been
// garbage-collected by MaxVersions retention, so callers can tell "absent
// at ts" from "history gone".
func (cl *Client) GetAsOf(table string, row []byte, col string, ts kv.Timestamp) ([]byte, kv.Timestamp, bool, error) {
	return cl.getCol("get-asof", table, row, col, ts, (*RegionServer).GetAsOf)
}

// getCol is the one column point read, traced as op: it routes to the row's
// region, where read (a one-key MultiGet, or GetAsOf) answers it at ts.
func (cl *Client) getCol(op, table string, row []byte, col string, ts kv.Timestamp, read func(*RegionServer, string, []byte, kv.Timestamp) (kv.Cell, bool, error)) ([]byte, kv.Timestamp, bool, error) {
	tr := cl.tracer.Start(op, table)
	defer cl.tracer.Finish(tr)
	var val []byte
	var cellTs kv.Timestamp
	var ok bool
	err := cl.withRegion(table, row, func(ri RegionInfo, s *RegionServer) error {
		c, found, err := read(s, ri.ID, kv.BaseKey(row, []byte(col)), ts)
		if err != nil {
			return err
		}
		if found {
			val, cellTs, ok = c.Value, c.Ts, true
		} else {
			val, cellTs, ok = nil, 0, false
		}
		return nil
	})
	return val, cellTs, ok, err
}

// GetRow reads all columns of a row at the latest timestamp. A nil map
// means the row has no visible columns.
func (cl *Client) GetRow(table string, row []byte) (map[string][]byte, error) {
	return cl.getRow("get-row", table, row, kv.MaxTimestamp)
}

// GetRowAsOf reads all columns of a row as they stood at timestamp ts. A
// nil map means the row had no visible columns at ts. Columns whose as-of
// version may have been trimmed are skipped (scan semantics); use GetAsOf
// per column for trimmed-history detection.
func (cl *Client) GetRowAsOf(table string, row []byte, ts kv.Timestamp) (map[string][]byte, error) {
	return cl.getRow("get-row-asof", table, row, ts)
}

// getRow is the one row read: the row's columns visible at ts, traced as op.
func (cl *Client) getRow(op, table string, row []byte, ts kv.Timestamp) (map[string][]byte, error) {
	tr := cl.tracer.Start(op, table)
	defer cl.tracer.Finish(tr)
	prefix := kv.RowPrefix(row)
	var cols map[string][]byte
	err := cl.withRegion(table, row, func(ri RegionInfo, s *RegionServer) error {
		results, err := s.Scan(ri.ID, prefix, kv.PrefixSuccessor(prefix), ts, 0)
		if err != nil {
			return err
		}
		cols = nil
		for _, res := range results {
			_, col, err := kv.SplitBaseKey(res.Key)
			if err != nil {
				return err
			}
			if cols == nil {
				cols = make(map[string][]byte)
			}
			cols[string(col)] = res.Value
		}
		return nil
	})
	return cols, err
}

// Row is one base-table row returned by Scan.
type Row struct {
	Key  []byte
	Cols map[string][]byte
}

// forEachRegion walks the routing-key range [start, end) region by region
// with a cursor: each step locates the region holding the cursor (through
// the cache, refreshed transparently on routing misses) and invokes fn with
// the region's clamped routing bounds. Cursor iteration stays correct when
// regions split or move mid-scan, unlike walking a point-in-time region
// list. fn returns false to stop early.
func (cl *Client) forEachRegion(table string, start, end []byte, fn func(ri RegionInfo, lo, hi []byte, s *RegionServer) (bool, error)) error {
	cursor := start
	if cursor == nil {
		cursor = []byte{}
	}
	for {
		if end != nil && bytes.Compare(cursor, end) >= 0 {
			return nil
		}
		var (
			more    bool
			nextEnd []byte
		)
		err := cl.withRegion(table, cursor, func(ri RegionInfo, s *RegionServer) error {
			lo := cursor
			hi := ri.End
			if end != nil && (hi == nil || bytes.Compare(end, hi) < 0) {
				hi = end
			}
			var err error
			more, err = fn(ri, lo, hi, s)
			nextEnd = ri.End
			return err
		})
		if err != nil {
			return err
		}
		if !more || nextEnd == nil {
			return nil
		}
		cursor = nextEnd
	}
}

// Scan reads rows with keys in [startRow, endRow) (nil bounds are open),
// visiting regions in key order, up to limit rows (limit ≤ 0 = unlimited).
func (cl *Client) Scan(table string, startRow, endRow []byte, limit int) ([]Row, error) {
	return cl.scan("scan", table, startRow, endRow, kv.MaxTimestamp, limit)
}

// ScanAsOf reads rows with keys in [startRow, endRow) as they stood at
// timestamp ts — Scan evaluated against historical state.
func (cl *Client) ScanAsOf(table string, startRow, endRow []byte, ts kv.Timestamp, limit int) ([]Row, error) {
	return cl.scan("scan-asof", table, startRow, endRow, ts, limit)
}

// scan is the one row scan: rows as visible at ts, traced as op.
func (cl *Client) scan(op, table string, startRow, endRow []byte, ts kv.Timestamp, limit int) ([]Row, error) {
	tr := cl.tracer.Start(op, table)
	defer cl.tracer.Finish(tr)
	var rows []Row
	var curKey []byte
	var curCols map[string][]byte
	flush := func() {
		if curCols != nil {
			rows = append(rows, Row{Key: curKey, Cols: curCols})
			curKey, curCols = nil, nil
		}
	}
	hitLimit := false
	err := cl.forEachRegion(table, startRow, endRow, func(ri RegionInfo, lo, hi []byte, s *RegionServer) (bool, error) {
		// Translate row bounds into store-key bounds. An empty lower bound
		// still starts at BaseDataStart so local-index entries (which sort
		// below all base data) stay out of row scans.
		storeLo := kv.BaseDataStart
		if len(lo) > 0 {
			storeLo = kv.RowPrefix(lo)
		}
		var storeHi []byte
		if hi != nil {
			storeHi = kv.RowPrefix(hi)
		}
		results, err := s.Scan(ri.ID, storeLo, storeHi, ts, 0)
		if err != nil {
			return false, err
		}
		for _, res := range results {
			row, col, err := kv.SplitBaseKey(res.Key)
			if err != nil {
				return false, err
			}
			if curCols == nil || !bytes.Equal(row, curKey) {
				flush()
				if limit > 0 && len(rows) >= limit {
					hitLimit = true
					return false, nil
				}
				curKey = append([]byte(nil), row...)
				curCols = make(map[string][]byte)
			}
			curCols[string(col)] = res.Value
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if !hitLimit {
		flush()
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, nil
}

// RawApply writes pre-timestamped cells to the region holding routingKey —
// the index-maintenance path, where cells carry the base entry's timestamp.
func (cl *Client) RawApply(table string, routingKey []byte, cells []kv.Cell) error {
	err := cl.withRegion(table, routingKey, func(ri RegionInfo, s *RegionServer) error {
		return s.Apply(ri.ID, cells)
	})
	if err == nil {
		cl.cluster.noteApply(len(cells))
	}
	return err
}

// MultiApply writes pre-timestamped cells to a RAW (index) table, grouping
// them by destination region through the cached partition map and issuing
// ONE Apply RPC per region, with the per-region RPCs in flight concurrently
// under the client's fan-out bound. Each cell routes by its own Key (raw
// tables route by store key).
//
// When a region moved mid-batch (split, crash recovery), the groups that
// hit the stale route fail with a retriable error; the partition map is
// invalidated and only the failed cells are regrouped and retried, with the
// same backoff as withRegion. Cells carry fixed timestamps, so a retry that
// re-delivers an already-applied cell is idempotent under LSM semantics
// (§4.3's same-timestamp rule) — no cell is lost or duplicated.
func (cl *Client) MultiApply(table string, cells []kv.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	return cl.multiRoute(table, len(cells),
		func(i int) []byte { return cells[i].Key },
		func(ri RegionInfo, s *RegionServer, group []int) error {
			batch := make([]kv.Cell, len(group))
			for j, i := range group {
				batch[j] = cells[i]
			}
			return s.Apply(ri.ID, batch)
		},
		func(group []int) { cl.cluster.noteApply(len(group)) })
}

// multiRoute is the engine behind the region-grouped batch operations
// (MultiGet, MultiGetRow, MultiApply): items 0…n-1 route by routeKey
// through the cached partition map, each destination region receives ONE
// call carrying its group of item indices, and the per-region calls are
// issued concurrently under the client's bounded fan-out. Groups that fail
// with a retriable routing error (split, crash recovery) invalidate the map
// and only their items are regrouped and retried, with the same backoff as
// withRegion — call must therefore be idempotent under redelivery and write
// its results into caller-owned slots indexed by item, which keeps results
// in input order no matter how items regroup. A non-retriable error
// surfaces deterministically: among failing groups, the one lowest in
// region-dispatch order (itself fixed by item order) wins. onSuccess, when
// non-nil, observes each group whose call round-tripped successfully.
func (cl *Client) multiRoute(table string, n int, routeKey func(i int) []byte, call func(ri RegionInfo, s *RegionServer, group []int) error, onSuccess func(group []int)) error {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	var lastErr error
	backoff := time.Millisecond
	for attempt := 0; attempt < maxRetries; attempt++ {
		// Group the pending items by their region's position; dispatch
		// lists each group's region in the order of its first item.
		regions, err := cl.regions(table)
		if err != nil {
			return err
		}
		regionGroup := make([]int, len(regions)) // region position → group + 1
		itemGroup := make([]int, len(pending))
		var dispatch []int
		for k, i := range pending {
			p, ok := regionIndex(regions, routeKey(i))
			if !ok {
				return fmt.Errorf("cluster: no region for key %q in table %s", routeKey(i), table)
			}
			if regionGroup[p] == 0 {
				dispatch = append(dispatch, p)
				regionGroup[p] = len(dispatch)
			}
			itemGroup[k] = regionGroup[p] - 1
		}
		// Lay the groups out one after another, each in pending order:
		// group g is items[start[g]:start[g+1]], capped so that no append
		// to it reaches the next group.
		start := make([]int, len(dispatch)+1)
		for _, g := range itemGroup {
			start[g]++
		}
		for g := range dispatch {
			start[g+1] += start[g]
		}
		items := make([]int, len(pending))
		for k := len(pending) - 1; k >= 0; k-- { // each end steps down to its start
			start[itemGroup[k]]--
			items[start[itemGroup[k]]] = pending[k]
		}
		cl.cluster.noteWave(len(dispatch), len(pending), attempt == 0)

		// One call per region, concurrently; collect the items of failed
		// (retriable) groups for the next round.
		var mu sync.Mutex
		var failed []int
		err = runFanOut(cl.fanOut, len(dispatch), func(g int) error {
			ri := regions[dispatch[g]]
			group := items[start[g]:start[g+1]:start[g+1]]
			server := cl.cluster.Server(ri.Server)
			callErr := cl.cluster.Net.Call(cl.name, ri.Server, func() error {
				return call(ri, server, group)
			})
			switch {
			case callErr == nil:
				if onSuccess != nil {
					onSuccess(group)
				}
			case retriable(callErr):
				mu.Lock()
				lastErr = callErr
				failed = append(failed, group...)
				mu.Unlock()
			default:
				return callErr
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(failed) == 0 {
			return nil
		}
		cl.invalidate(table)
		if len(cl.cluster.LiveServerIDs()) == 0 {
			return fmt.Errorf("cluster: no live servers for table %s: %w", table, lastErr)
		}
		sort.Ints(failed) // deterministic regroup order across retry rounds
		pending = failed
		time.Sleep(backoff)
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("cluster: retries exhausted for table %s: %w", table, lastErr)
}

// GetSpec addresses one point read of a MultiGet batch: Key is the store
// key to read, Route the routing key locating its region (the row key for
// base tables). A nil Route routes by Key itself — the raw/index-table
// case, where store keys are routing keys.
type GetSpec struct {
	Route []byte
	Key   []byte
}

func (g GetSpec) route() []byte {
	if g.Route != nil {
		return g.Route
	}
	return g.Key
}

// MultiGet reads a batch of store keys at ts, grouping them by destination
// region through the cached partition map: one MultiGet RPC per region,
// issued concurrently under the client's fan-out bound. Results are
// positional — out[i] answers specs[i] — so output order equals input order
// regardless of grouping, retries or scheduling. Stale-routed groups retry
// after a map invalidation exactly like MultiApply; point reads are
// trivially idempotent, so redelivery is safe.
func (cl *Client) MultiGet(table string, specs []GetSpec, ts kv.Timestamp) ([]GetResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	tr := cl.tracer.Start("multi-get", table)
	defer cl.tracer.Finish(tr)
	out := make([]GetResult, len(specs))
	err := cl.multiRoute(table, len(specs),
		func(i int) []byte { return specs[i].route() },
		func(ri RegionInfo, s *RegionServer, group []int) error {
			keys := make([][]byte, len(group))
			for j, i := range group {
				keys[j] = specs[i].Key
			}
			res, err := s.MultiGet(ri.ID, keys, ts)
			if err != nil {
				return err
			}
			for j, i := range group {
				out[i] = res[j]
			}
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiGetRow reads a batch of whole base-table rows in one region-grouped,
// concurrent wave: the batched form of GetRow, and the resolver FetchRows
// uses to turn N index hits into rows with one RPC per region instead of N
// serial round trips. out[i] holds rows[i]'s visible columns (nil = no
// visible row), in input order.
func (cl *Client) MultiGetRow(table string, rows [][]byte) ([]map[string][]byte, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	tr := cl.tracer.Start("multi-get-row", table)
	defer cl.tracer.Finish(tr)
	out := make([]map[string][]byte, len(rows))
	err := cl.multiRoute(table, len(rows),
		func(i int) []byte { return rows[i] },
		func(ri RegionInfo, s *RegionServer, group []int) error {
			batch := make([][]byte, len(group))
			for j, i := range group {
				batch[j] = rows[i]
			}
			res, err := s.MultiGetRow(ri.ID, batch, kv.MaxTimestamp)
			if err != nil {
				return err
			}
			for j, i := range group {
				out[i] = res[j]
			}
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// regionIndex finds the position in a sorted region list of key's region.
func regionIndex(regions []RegionInfo, key []byte) (int, bool) {
	p := sort.Search(len(regions), func(i int) bool {
		return regions[i].End == nil || bytes.Compare(key, regions[i].End) < 0
	})
	return p, p < len(regions) && regions[p].Contains(key)
}

// regionContaining finds the region of a sorted region list holding key.
func regionContaining(regions []RegionInfo, key []byte) (RegionInfo, bool) {
	if p, ok := regionIndex(regions, key); ok {
		return regions[p], true
	}
	return RegionInfo{}, false
}

// scatterRanges snapshots the table's region routing boundaries clamped to
// [start, end), the unit of work one scatter-gather scan branch covers.
// Each branch re-walks its slice of the routing space with the cursor loop
// (forEachRegion), so a region that splits after the snapshot is still
// covered — the branch just visits both children. A region that MERGED
// after the snapshot spans several branch ranges; range-clamped scans
// (RawScan) stay disjoint naturally, while whole-region scans
// (BroadcastScan) dedupe with an ownership rule — see ownsRegion.
type scatterRange struct {
	lo, hi []byte
}

func (cl *Client) scatterRanges(table string, start, end []byte) ([]scatterRange, error) {
	regions, err := cl.regions(table)
	if err != nil {
		return nil, err
	}
	var out []scatterRange
	for _, ri := range regions {
		if !ri.Overlaps(start, end) {
			continue
		}
		lo, hi := ri.Start, ri.End
		if start != nil && (lo == nil || bytes.Compare(start, lo) > 0) {
			lo = start
		}
		if end != nil && (hi == nil || bytes.Compare(end, hi) < 0) {
			hi = end
		}
		out = append(out, scatterRange{lo: lo, hi: hi})
	}
	return out, nil
}

// BroadcastScan runs the same store-key scan against EVERY region of the
// table and concatenates the results in region (routing) order, not
// globally sorted. This is the query pattern of local secondary indexes
// (§3.1: "every query has to be broadcast to each region"); each region
// contributes its own matching entries. The per-region scans run
// concurrently under the client's fan-out bound, so latency tracks the
// slowest region rather than the region count.
//
// limit bounds EACH region's result count (≤ 0 = unlimited): regions scan
// independently, so a global cutoff cannot be pushed down. Callers needing
// a global bound sort the concatenation and truncate (readLocalIndex does).
func (cl *Client) BroadcastScan(table string, start, end []byte, ts kv.Timestamp, limit int) ([]lsm.ScanResult, error) {
	ranges, err := cl.scatterRanges(table, nil, nil)
	if err != nil {
		return nil, err
	}
	parts := make([][]lsm.ScanResult, len(ranges))
	rpcs := make([]int, len(ranges))
	err = runFanOut(cl.fanOut, len(ranges), func(i int) error {
		return cl.forEachRegion(table, ranges[i].lo, ranges[i].hi, func(ri RegionInfo, _, _ []byte, s *RegionServer) (bool, error) {
			// A region that merged after the snapshot spans several branch
			// ranges and would be broadcast once per branch; only the branch
			// owning its start key scans it.
			if !ownsRegion(ranges[i], ri.Start) {
				return true, nil
			}
			results, err := s.Scan(ri.ID, start, end, ts, limit)
			if err != nil {
				return false, err
			}
			parts[i] = append(parts[i], results...)
			rpcs[i]++
			return true, nil
		})
	})
	cl.noteScatter(rpcs)
	if err != nil {
		return nil, err
	}
	return concatScans(parts), nil
}

// RawScan scans raw store keys in [start, end) across regions at ts, up to
// limit results (≤ 0 = unlimited). For index tables, routing keys equal
// store keys, so concatenating the per-range results in snapshot order
// yields globally key-ordered output; each range scans up to limit entries
// concurrently and the concatenation is truncated to limit, which returns
// exactly the first limit results in key order — the serial semantics.
func (cl *Client) RawScan(table string, start, end []byte, ts kv.Timestamp, limit int) ([]lsm.ScanResult, error) {
	ranges, err := cl.scatterRanges(table, start, end)
	if err != nil {
		return nil, err
	}
	parts := make([][]lsm.ScanResult, len(ranges))
	rpcs := make([]int, len(ranges))
	err = runFanOut(cl.fanOut, len(ranges), func(i int) error {
		return cl.forEachRegion(table, ranges[i].lo, ranges[i].hi, func(ri RegionInfo, lo, hi []byte, s *RegionServer) (bool, error) {
			remaining := 0
			if limit > 0 {
				remaining = limit - len(parts[i])
				if remaining <= 0 {
					return false, nil
				}
			}
			results, err := s.Scan(ri.ID, lo, hi, ts, remaining)
			if err != nil {
				return false, err
			}
			parts[i] = append(parts[i], results...)
			rpcs[i]++
			return true, nil
		})
	})
	cl.noteScatter(rpcs)
	if err != nil {
		return nil, err
	}
	out := concatScans(parts)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// ownsRegion reports whether a scatter branch owns the region whose start
// key is riStart (nil = the keyspace minimum): ownership goes to the single
// branch whose [lo, hi) range contains the region's start, so a region
// spanning several branch snapshots (a post-snapshot merge) is whole-region
// scanned exactly once.
func ownsRegion(r scatterRange, riStart []byte) bool {
	if riStart == nil {
		return r.lo == nil
	}
	if r.lo != nil && bytes.Compare(riStart, r.lo) < 0 {
		return false
	}
	return r.hi == nil || bytes.Compare(riStart, r.hi) < 0
}

// noteScatter records one scatter-gather scan wave's realized RPC count.
func (cl *Client) noteScatter(rpcs []int) {
	total := 0
	for _, n := range rpcs {
		total += n
	}
	cl.cluster.noteWave(total, 0, true)
}

// concatScans flattens per-branch results preserving branch order.
func concatScans(parts [][]lsm.ScanResult) []lsm.ScanResult {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]lsm.ScanResult, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
