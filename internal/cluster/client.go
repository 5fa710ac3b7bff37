package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
	for i := range regions {
		regions[i].rowLo, regions[i].rowHi = baseStoreBounds(regions[i].Start, regions[i].End)
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
	tr := cl.tracer.Start("get", table)
	defer cl.tracer.Finish(tr)
	res, err := cl.multiGet(table, []GetSpec{{Route: row, Key: kv.BaseKey(row, []byte(col))}}, kv.MaxTimestamp)
	if err != nil || !res[0].Found {
		return nil, 0, false, err
	}
	return res[0].Cell.Value, res[0].Cell.Ts, true, nil
}

// GetAsOf reads one column of a row as it stood at timestamp ts — any
// timestamp previously returned by Put/Delete qualifies. Unlike a plain read
// at ts (which answers from whatever versions remain), GetAsOf surfaces
// lsm.ErrHistoryTrimmed when the version visible at ts may have been
// garbage-collected by MaxVersions retention, so callers can tell "absent
// at ts" from "history gone".
func (cl *Client) GetAsOf(table string, row []byte, col string, ts kv.Timestamp) ([]byte, kv.Timestamp, bool, error) {
	tr := cl.tracer.Start("get-asof", table)
	defer cl.tracer.Finish(tr)
	var c kv.Cell
	var ok bool
	err := cl.withRegion(table, row, func(ri RegionInfo, s *RegionServer) error {
		var err error
		c, ok, err = s.GetAsOf(ri.ID, kv.BaseKey(row, []byte(col)), ts)
		return err
	})
	if err != nil || !ok {
		return nil, 0, false, err
	}
	return c.Value, c.Ts, true, nil
}

// GetRow reads all columns of a row at the latest timestamp. A nil map
// means the row has no visible columns.
func (cl *Client) GetRow(table string, row []byte) (map[string][]byte, error) {
	return cl.GetRowAsOf(table, row, kv.MaxTimestamp)
}

// GetRowAsOf reads all columns of a row as they stood at timestamp ts. A
// nil map means the row had no visible columns at ts. Columns whose as-of
// version may have been trimmed are skipped (scan semantics); use GetAsOf
// per column for trimmed-history detection.
func (cl *Client) GetRowAsOf(table string, row []byte, ts kv.Timestamp) (map[string][]byte, error) {
	tr := cl.tracer.Start(asOfOp("get-row", ts), table)
	defer cl.tracer.Finish(tr)
	res, err := cl.MultiScan(table, []ScanSpec{RowSpec(row)}, ts, 0)
	if err != nil {
		return nil, err
	}
	return RowCols(res[0])
}

// asOfOp names a read's trace: op at the latest timestamp, op-asof below it.
func asOfOp(op string, ts kv.Timestamp) string {
	if ts == kv.MaxTimestamp {
		return op
	}
	return op + "-asof"
}

// RowCols turns one row's scanned cells into its column map: nil when the
// row has no visible columns.
func RowCols(cells []lsm.ScanResult) (map[string][]byte, error) {
	var cols map[string][]byte
	for _, res := range cells {
		_, col, err := kv.SplitBaseKey(res.Key)
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make(map[string][]byte, len(cells))
		}
		cols[string(col)] = res.Value
	}
	return cols, nil
}

// Row is one base-table row returned by Scan.
type Row struct {
	Key  []byte
	Cols map[string][]byte
}

// Scan reads rows with keys in [startRow, endRow) (nil bounds are open) as
// they stood at ts, up to limit rows (limit ≤ 0 = unlimited), in key order.
// An unlimited scan is one MultiScan over every region it covers. A limited
// one reads one region per MultiScan, in key order, and stops at the region
// that fills it: a row limit is not a cell limit.
func (cl *Client) Scan(table string, startRow, endRow []byte, ts kv.Timestamp, limit int) ([]Row, error) {
	tr := cl.tracer.Start(asOfOp("scan", ts), table)
	defer cl.tracer.Finish(tr)
	spec := RowRangeSpec(startRow, endRow)
	end := spec.End
	var rows []Row
	for {
		if limit > 0 { // end this MultiScan where the cached map ends its first region
			regions, err := cl.regions(table)
			if err != nil {
				return nil, err
			}
			p := sort.Search(len(regions), func(p int) bool {
				return regions[p].rowHi == nil || bytes.Compare(spec.Start, regions[p].rowHi) < 0
			})
			if p < len(regions) && regions[p].rowHi != nil && (end == nil || bytes.Compare(regions[p].rowHi, end) < 0) {
				spec.End = regions[p].rowHi
			}
		}
		res, err := cl.MultiScan(table, []ScanSpec{spec}, ts, 0)
		if err == nil {
			rows, err = appendRows(rows, res[0])
		}
		if err != nil {
			return nil, err
		}
		if limit <= 0 || len(rows) >= limit || bytes.Equal(spec.End, end) {
			break
		}
		spec.Start, spec.End = spec.End, end
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, nil
}

// appendRows groups base-table cells in store-key order into rows.
func appendRows(rows []Row, cells []lsm.ScanResult) ([]Row, error) {
	for _, res := range cells {
		row, col, err := kv.SplitBaseKey(res.Key)
		if err != nil {
			return nil, err
		}
		if n := len(rows); n == 0 || !bytes.Equal(rows[n-1].Key, row) {
			rows = append(rows, Row{Key: append([]byte(nil), row...), Cols: make(map[string][]byte)})
		}
		rows[len(rows)-1].Cols[string(col)] = res.Value
	}
	return rows, nil
}

// baseStoreBounds translates base-table ROUTING bounds (row keys, nil =
// open) into store-key bounds that exclude the reserved local-index key
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
		routeByKey(table, func(i int) []byte { return cells[i].Key }),
		func(ri RegionInfo, s *RegionServer, group []int) error {
			batch := make([]kv.Cell, len(group))
			for j, i := range group {
				batch[j] = cells[i]
			}
			return s.Apply(ri.ID, batch)
		},
		func(group []int) { cl.cluster.noteApply(len(group)) })
}

// placement puts a batch item in the region at position pos of the
// partition map.
type placement struct{ pos, item int }

// placeFunc places item i of a batch against the partition map regions: it
// appends to dst one placement per region the item reaches, whose item is
// i itself or an item the placer created for its part in that region.
type placeFunc func(i int, regions []RegionInfo, dst []placement) ([]placement, error)

// routeByKey places each item in the one region holding its routing key.
func routeByKey(table string, key func(i int) []byte) placeFunc {
	return func(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
		p, ok := regionIndex(regions, key(i))
		if !ok {
			return dst, fmt.Errorf("cluster: no region for key %q in table %s", key(i), table)
		}
		return append(dst, placement{p, i}), nil
	}
}

// multiRoute is the engine behind the region-grouped batch operations
// (MultiGet, MultiScan, MultiApply): items 0…n-1 are placed against the
// cached partition map, each destination region receives ONE call
// carrying its group of item indices, and the per-region calls are issued
// concurrently under the client's bounded fan-out. Groups that fail with a
// retriable routing error (split, merge, crash recovery) invalidate the map
// and only their items are placed again and retried, with the same backoff
// as withRegion — call must therefore be idempotent under redelivery and
// write its results into caller-owned slots indexed by item, which keeps
// results in input order no matter how items regroup. A non-retriable
// error surfaces deterministically: among failing groups, the one lowest
// in region-dispatch order (itself fixed by item order) wins. onSuccess,
// when non-nil, observes each group whose call round-tripped successfully.
func (cl *Client) multiRoute(table string, n int, place placeFunc, call func(ri RegionInfo, s *RegionServer, group []int) error, onSuccess func(group []int)) error {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	var lastErr error
	backoff := time.Millisecond
	for attempt := 0; attempt < maxRetries; attempt++ {
		// Group the placed items by their region's position; dispatch
		// lists each group's region in the order of its first item.
		regions, err := cl.regions(table)
		if err != nil {
			return err
		}
		placed := make([]placement, 0, len(pending))
		for _, i := range pending {
			if placed, err = place(i, regions, placed); err != nil {
				return err
			}
		}
		var dispatch []int
		for k, pl := range placed {
			g := slices.Index(dispatch, pl.pos) // a batch reaches few regions
			if g < 0 {
				g = len(dispatch)
				dispatch = append(dispatch, pl.pos)
			}
			placed[k].pos = g // from here on, the group
		}
		// Lay the groups out one after another, each in placement order:
		// group g is items[start[g]:start[g+1]], capped so that no append
		// to it reaches the next group.
		layout := make([]int, len(dispatch)+1+len(placed))
		start, items := layout[:len(dispatch)+1], layout[len(dispatch)+1:]
		for _, pl := range placed {
			start[pl.pos]++
		}
		for g := range dispatch {
			start[g+1] += start[g]
		}
		for k := len(placed) - 1; k >= 0; k-- { // each end steps down to its start
			g := placed[k].pos
			start[g]--
			items[start[g]] = placed[k].item
		}
		cl.cluster.noteWave(len(dispatch), len(placed), attempt == 0)

		// One call per region, concurrently; a group that fails with a
		// retriable error records it, and its items go round again.
		retry := make([]error, len(dispatch))
		err = runFanOut(cl.fanOut, len(dispatch), func(g int) error {
			ri := regions[dispatch[g]]
			group := items[start[g]:start[g+1]:start[g+1]]
			server := cl.cluster.Server(ri.Server)
			err := cl.cluster.Net.Call(cl.name, ri.Server, func() error {
				return call(ri, server, group)
			})
			switch {
			case err == nil && onSuccess != nil:
				onSuccess(group)
			case retriable(err):
				retry[g] = err
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
		var failed []int
		for g, e := range retry {
			if e != nil {
				lastErr = e
				failed = append(failed, items[start[g]:start[g+1]]...)
			}
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
	return cl.multiGet(table, specs, ts)
}

// multiGet is MultiGet without a trace of its own, for the reads built on it.
func (cl *Client) multiGet(table string, specs []GetSpec, ts kv.Timestamp) ([]GetResult, error) {
	out := make([]GetResult, len(specs))
	err := cl.multiRoute(table, len(specs),
		routeByKey(table, func(i int) []byte { return specs[i].route() }),
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

// ScanRoute says which regions a ScanSpec reads.
type ScanRoute uint8

const (
	// ByKey routes by the store keys themselves: raw and index tables,
	// whose routing keys are their store keys.
	ByKey ScanRoute = iota
	// ByRow routes base-table store keys by row: a region holds the store
	// keys from RowPrefix of its start row (kv.BaseDataStart for the first
	// region) to RowPrefix of its end row. A ByRow spec starts at or above
	// kv.BaseDataStart.
	ByRow
	// ToAll reads the whole range in every region of the table: local
	// indexes, whose entries every region keeps below kv.BaseDataStart
	// for its own rows (§3.1: "every query has to be broadcast").
	ToAll
)

// ScanSpec addresses one range of a MultiScan batch: the store keys in
// [Start, End) (nil bounds are open), read from the regions Route picks.
type ScanSpec struct {
	Start, End []byte
	Route      ScanRoute
}

// RowSpec is the ScanSpec of one base-table row: a one-part range, so each
// region store skips the tables whose filter rules the row out.
func RowSpec(row []byte) ScanSpec {
	prefix := kv.RowPrefix(row)
	return ScanSpec{Start: prefix, End: kv.PrefixSuccessor(prefix), Route: ByRow}
}

// RowRangeSpec is the ScanSpec of the base-table rows in [startRow, endRow)
// (nil bounds are open).
func RowRangeSpec(startRow, endRow []byte) ScanSpec {
	lo, hi := baseStoreBounds(startRow, endRow)
	return ScanSpec{Start: lo, End: hi, Route: ByRow}
}

// storeBounds returns the store keys region ri holds under a ByKey or ByRow
// route.
func (ri RegionInfo) storeBounds(route ScanRoute) (lo, hi []byte) {
	if route == ByRow {
		return ri.rowLo, ri.rowHi
	}
	return ri.Start, ri.End
}

// MultiScan reads a batch of ranges at ts, up to limit results per spec
// (≤ 0 = unlimited): out[i] holds specs[i]'s visible cells in key order.
// Each spec is cut into pieces, one per region it reaches, and each region
// receives ONE MultiScan RPC carrying all of its pieces, concurrently under
// the client's fan-out bound (the multiRoute engine). Every piece reads up
// to limit cells and a spec keeps the first limit of its pieces' merged
// cells, which is exactly the first limit in key order.
//
// A piece whose region moved (split, merge, crash recovery) is placed again
// against the refreshed map: a ByKey or ByRow piece is clipped to each
// region it now overlaps, so a split mid-batch reads both children and a
// merged region reads its pieces in one RPC. A ToAll piece owns the
// routing range of the region it was sent to, and is sent again to each
// region overlapping that range, once per region however many pieces it
// serves; keys of a merged region read by an earlier attempt too are
// dropped as duplicates.
func (cl *Client) MultiScan(table string, specs []ScanSpec, ts kv.Timestamp, limit int) ([][]lsm.ScanResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// A piece's [lo, hi) is the store range it reads or, for ToAll, the
	// routing range of the region it was sent to.
	type piece struct {
		spec   int
		lo, hi []byte
		done   bool
		res    []lsm.ScanResult
	}
	pieces := make([]piece, len(specs))
	for i, sp := range specs {
		pieces[i] = piece{spec: i, lo: sp.Start, hi: sp.End}
		if sp.Route == ToAll {
			pieces[i].lo, pieces[i].hi = nil, nil
		}
	}
	place := func(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
		cur, route := pieces[i], specs[pieces[i].spec].Route
		first := 0
		if route != ToAll { // skip the regions that end at or below the piece
			first = sort.Search(len(regions), func(p int) bool {
				_, hi := regions[p].storeBounds(route)
				return hi == nil || bytes.Compare(cur.lo, hi) < 0
			})
		}
		reuse := true // the piece's first region keeps its slot; others get new ones
		for p := first; p < len(regions); p++ {
			lo, hi := regions[p].Start, regions[p].End
			if route == ToAll {
				// One read per region and attempt, however many of the
				// spec's pieces the region now serves.
				if !regions[p].Overlaps(cur.lo, cur.hi) || slices.ContainsFunc(dst, func(pl placement) bool {
					return pl.pos == p && pieces[pl.item].spec == cur.spec
				}) {
					continue
				}
			} else {
				rlo, rhi := regions[p].storeBounds(route)
				if cur.hi != nil && bytes.Compare(rlo, cur.hi) >= 0 {
					break // this region and the rest start past the piece
				}
				if lo, hi = clipRange(cur.lo, cur.hi, rlo, rhi); hi != nil && bytes.Compare(lo, hi) >= 0 {
					continue // an empty range reads nothing
				}
			}
			next := piece{spec: cur.spec, lo: lo, hi: hi}
			if reuse {
				pieces[i], reuse = next, false
				dst = append(dst, placement{p, i})
			} else {
				pieces = append(pieces, next)
				dst = append(dst, placement{p, len(pieces) - 1})
			}
		}
		return dst, nil
	}
	err := cl.multiRoute(table, len(pieces), place,
		func(ri RegionInfo, s *RegionServer, group []int) error {
			ranges := make([]lsm.ScanRange, len(group))
			for j, i := range group {
				sp := specs[pieces[i].spec]
				ranges[j] = lsm.ScanRange{Start: sp.Start, End: sp.End}
				if sp.Route != ToAll {
					ranges[j] = lsm.ScanRange{Start: pieces[i].lo, End: pieces[i].hi}
				}
			}
			res, err := s.MultiScan(ri.ID, ranges, ts, limit)
			if err != nil {
				return err
			}
			for j, i := range group {
				pieces[i].res, pieces[i].done = res[j], true
			}
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]lsm.ScanResult, len(specs))
	for _, pc := range pieces {
		switch {
		case !pc.done:
		case out[pc.spec] == nil: // usually a spec's only piece
			out[pc.spec] = pc.res
		default:
			out[pc.spec] = append(out[pc.spec], pc.res...)
		}
	}
	byKey := func(a, b lsm.ScanResult) int { return bytes.Compare(a.Key, b.Key) }
	for i, cells := range out {
		if !slices.IsSortedFunc(cells, byKey) {
			slices.SortStableFunc(cells, byKey)
		}
		if specs[i].Route == ToAll { // a region that merged may have been read twice
			cells = slices.CompactFunc(cells, func(a, b lsm.ScanResult) bool { return byKey(a, b) == 0 })
		}
		if limit > 0 && len(cells) > limit {
			cells = cells[:limit]
		}
		out[i] = cells
	}
	return out, nil
}

// clipRange intersects the store range [lo, hi) with a region's [rlo, rhi)
// (nil bounds are open).
func clipRange(lo, hi, rlo, rhi []byte) ([]byte, []byte) {
	if rlo != nil && (lo == nil || bytes.Compare(rlo, lo) > 0) {
		lo = rlo
	}
	if rhi != nil && (hi == nil || bytes.Compare(rhi, hi) < 0) {
		hi = rhi
	}
	return lo, hi
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
