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

// Put writes a row's columns, returning the server-assigned timestamp.
func (cl *Client) Put(table string, row []byte, cols map[string][]byte) (kv.Timestamp, error) {
	ts, _, err := cl.Mutate(table, row, Mutation{Put: cols}, false)
	return ts, err
}

// Delete tombstones the given columns of a row (all columns when cols is
// nil), returning the delete timestamp.
func (cl *Client) Delete(table string, row []byte, cols []string) (kv.Timestamp, error) {
	ts, _, err := cl.Mutate(table, row, Mutation{Del: cols, DelRow: cols == nil}, false)
	return ts, err
}

// Mutate applies one row mutation, returning its server-assigned
// timestamp. With wantOld it also returns the row's visible values just
// before the mutation, read under the same row lock — §5.2: "the server
// returns the old value and the new timestamp".
func (cl *Client) Mutate(table string, row []byte, m Mutation, wantOld bool) (kv.Timestamp, map[string][]byte, error) {
	op := "put"
	if m.Put == nil {
		op = "delete"
	}
	tr := cl.tracer.Start(op, table)
	defer cl.tracer.Finish(tr)
	o := rowOp{row: row, m: m, wantOld: wantOld, tr: tr}
	err := cl.multiRoute(table, 1, &o, false)
	return o.ts, o.old, err
}

// rowOp is the one-item batch of a row mutation.
type rowOp struct {
	row     []byte
	m       Mutation
	wantOld bool
	tr      *metrics.Trace
	ts      kv.Timestamp
	old     map[string][]byte
}

func (o *rowOp) place(_ int, regions []RegionInfo, dst []placement) ([]placement, error) {
	return placeKey(regions, o.row, 0, dst)
}

func (o *rowOp) send(ri RegionInfo, s *RegionServer, _ []int) (err error) {
	o.ts, o.old, err = s.MutateRow(ri.ID, o.row, o.m, o.wantOld, o.tr)
	return err
}

// Get reads one column of a row at the latest timestamp, as a MultiGet of
// one key. ok reports whether the column exists.
func (cl *Client) Get(table string, row []byte, col string) ([]byte, kv.Timestamp, bool, error) {
	return cl.GetAsOf(table, row, col, kv.MaxTimestamp)
}

// GetAsOf reads one column of a row as it stood at timestamp ts, as a
// MultiGet of one key. Below the region's GC horizon it returns
// lsm.ErrHistoryTrimmed; at or above it the answer is exact (DESIGN.md
// §13).
func (cl *Client) GetAsOf(table string, row []byte, col string, ts kv.Timestamp) ([]byte, kv.Timestamp, bool, error) {
	tr := cl.tracer.Start(asOfOp("get", ts), table)
	defer cl.tracer.Finish(tr)
	res, err := cl.multiGet(table, []GetSpec{{Route: row, Key: kv.BaseKey(row, []byte(col))}}, ts)
	if err != nil || !res[0].Found {
		return nil, 0, false, err
	}
	return res[0].Cell.Value, res[0].Cell.Ts, true, nil
}

// GetRow reads all columns of a row at the latest timestamp. A nil map
// means the row has no visible columns.
func (cl *Client) GetRow(table string, row []byte) (map[string][]byte, error) {
	return cl.GetRowAsOf(table, row, kv.MaxTimestamp)
}

// GetRowAsOf reads all columns of a row as they stood at timestamp ts. A
// nil map means the row had no visible columns at ts. Below the region's GC
// horizon it returns lsm.ErrHistoryTrimmed.
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
// A limited scan reads pages of up to limit cells, each past the last cell
// of the one before, until it holds limit whole rows: a row limit is not a
// cell limit.
func (cl *Client) Scan(table string, startRow, endRow []byte, ts kv.Timestamp, limit int) ([]Row, error) {
	tr := cl.tracer.Start(asOfOp("scan", ts), table)
	defer cl.tracer.Finish(tr)
	spec := RowRangeSpec(startRow, endRow)
	var rows []Row
	for {
		res, err := cl.MultiScan(table, []ScanSpec{spec}, ts, limit)
		if err == nil {
			rows, err = appendRows(rows, res[0])
		}
		if err != nil {
			return nil, err
		}
		page := res[0]
		if limit <= 0 || len(page) < limit || len(rows) > limit {
			break
		}
		last := page[len(page)-1].Key
		spec.Start = append(last[:len(last):len(last)], 0) // the least key past last
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

// MultiApply writes pre-timestamped cells — the index-maintenance path,
// where cells carry the base entry's timestamp — with ONE Apply RPC per
// destination region. A cell routes by its routing key: its own key in a
// raw table, its row for a base cell or a local-index entry. Cells carry
// fixed timestamps, so a retry that re-delivers an applied cell is
// idempotent under LSM semantics (§4.3's same-timestamp rule) — no cell is
// lost or duplicated.
func (cl *Client) MultiApply(table string, cells []kv.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	return cl.multiRoute(table, len(cells), applyBatch(cells), true)
}

// applyBatch is the batch of MultiApply.
type applyBatch []kv.Cell

func (b applyBatch) place(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
	route, err := routingKeyOf(regions[0].raw, b[i].Key)
	if err != nil {
		return dst, err
	}
	return placeKey(regions, route, i, dst)
}

func (b applyBatch) send(ri RegionInfo, s *RegionServer, group []int) error {
	cells := make([]kv.Cell, len(group))
	for j, i := range group {
		cells[j] = b[i]
	}
	err := s.Apply(ri.ID, cells)
	if err == nil {
		s.cluster.noteApply(len(cells))
	}
	return err
}

// placement puts a batch item in the region at position pos of the
// partition map.
type placement struct{ pos, item int }

// A batch is one operation multiRoute routes.
type batch interface {
	// place appends to dst one placement per region that item i reaches,
	// whose item is i itself or an item the batch created for its part in
	// that region.
	place(i int, regions []RegionInfo, dst []placement) ([]placement, error)
	// send makes one region's call. It must be idempotent under
	// redelivery, write its results into slots indexed by item, and not
	// keep group.
	send(ri RegionInfo, s *RegionServer, group []int) error
}

// placeKey places item i in the one region holding its routing key.
func placeKey(regions []RegionInfo, key []byte, i int, dst []placement) ([]placement, error) {
	p, ok := regionIndex(regions, key)
	if !ok {
		return dst, fmt.Errorf("cluster: no region for key %q in table %s", key, regions[0].Table)
	}
	return append(dst, placement{p, i}), nil
}

// wave is multiRoute's working state, pooled so that routing allocates
// nothing once warm.
type wave struct {
	cl      *Client
	b       batch
	regions []RegionInfo
	pending []int
	placed  []placement
	// Group g goes to regions[dispatch[g]] with items[start[g]:start[g+1]].
	dispatch, start, items []int
	retry                  []error
	sendFn                 func(g int) error // send, bound once per wave
}

var wavePool = sync.Pool{New: func() any {
	w := new(wave)
	w.sendFn = w.send
	return w
}}

// send makes group g's call; a retriable failure is recorded, so that the
// group's items go round again.
func (w *wave) send(g int) error {
	ri := w.regions[w.dispatch[g]]
	group := w.items[w.start[g]:w.start[g+1]:w.start[g+1]]
	err := w.cl.cluster.Net.Call(w.cl.name, ri.Server, func() error {
		return w.b.send(ri, w.cl.cluster.Server(ri.Server), group)
	})
	if retriable(err) {
		w.retry[g] = err
		return nil
	}
	return err
}

// multiRoute is the client's one routing engine, behind every operation
// that reaches a region: the items 0…n-1 of b are placed against the
// cached partition map, and each region reached receives ONE call
// carrying its group, concurrently under the client's bounded fan-out.
// Groups that fail with a retriable routing error (split, merge, crash
// recovery) invalidate the map, and only their items are placed again and
// retried, backing off from 1 ms to 64 ms so the operation rides out a
// transition in progress. Among groups failing otherwise, the first in
// dispatch order (fixed by item order) returns its error. fanout says
// whether the fan-out metrics count the operation: batches are waves,
// single-row operations are not.
func (cl *Client) multiRoute(table string, n int, b batch, fanout bool) error {
	w := wavePool.Get().(*wave)
	w.cl, w.b = cl, b
	defer func() {
		w.cl, w.b, w.regions = nil, nil, nil // keep nothing of the operation
		wavePool.Put(w)
	}()
	w.pending = w.pending[:0]
	for i := range n {
		w.pending = append(w.pending, i)
	}
	var lastErr error
	backoff := time.Millisecond
	for attempt := 0; attempt < maxRetries; attempt++ {
		regions, err := cl.regions(table)
		if err != nil {
			return err
		}
		w.regions, w.placed, w.dispatch = regions, w.placed[:0], w.dispatch[:0]
		for _, i := range w.pending {
			if w.placed, err = b.place(i, regions, w.placed); err != nil {
				return err
			}
		}
		// Groups follow the order of their first items, and each keeps its
		// items in placement order; a batch reaches few regions.
		for _, pl := range w.placed {
			if !slices.Contains(w.dispatch, pl.pos) {
				w.dispatch = append(w.dispatch, pl.pos)
			}
		}
		w.start, w.items = append(w.start[:0], 0), w.items[:0]
		for _, pos := range w.dispatch {
			for _, pl := range w.placed {
				if pl.pos == pos {
					w.items = append(w.items, pl.item)
				}
			}
			w.start = append(w.start, len(w.items))
		}
		if fanout {
			cl.cluster.noteWave(len(w.dispatch), len(w.placed), attempt == 0)
		}

		w.retry = append(w.retry[:0], make([]error, len(w.dispatch))...)
		if err := runFanOut(cl.fanOut, len(w.dispatch), w.sendFn); err != nil {
			return err
		}
		w.pending = w.pending[:0]
		for g, e := range w.retry {
			if e != nil {
				lastErr = e
				w.pending = append(w.pending, w.items[w.start[g]:w.start[g+1]]...)
			}
		}
		if len(w.pending) == 0 {
			return nil
		}
		cl.invalidate(table)
		if len(cl.cluster.LiveServerIDs()) == 0 {
			// Whole-cluster shutdown: nothing to retry against.
			return fmt.Errorf("cluster: no live servers for table %s: %w", table, lastErr)
		}
		slices.Sort(w.pending) // deterministic regroup order across retry rounds
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

// MultiGet reads a batch of store keys at ts with ONE MultiGet RPC per
// destination region. Results are positional — out[i] answers specs[i] —
// whatever the grouping, retries or scheduling.
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
	b := getBatch{specs: specs, ts: ts, out: make([]GetResult, len(specs))}
	if err := cl.multiRoute(table, len(specs), &b, true); err != nil {
		return nil, err
	}
	return b.out, nil
}

// getBatch is the batch of MultiGet: out[i] answers specs[i].
type getBatch struct {
	specs []GetSpec
	ts    kv.Timestamp
	out   []GetResult
}

func (b *getBatch) place(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
	if route := b.specs[i].Route; route != nil {
		return placeKey(regions, route, i, dst)
	}
	return placeKey(regions, b.specs[i].Key, i, dst)
}

func (b *getBatch) send(ri RegionInfo, s *RegionServer, group []int) error {
	keys := make([][]byte, len(group))
	for j, i := range group {
		keys[j] = b.specs[i].Key
	}
	res, err := s.MultiGet(ri.ID, keys, b.ts)
	if err != nil {
		return err
	}
	for j, i := range group {
		b.out[i] = res[j]
	}
	return nil
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
	b := scanBatch{specs: specs, ts: ts, limit: limit, pieces: make([]scanPiece, len(specs))}
	for i, sp := range specs {
		b.pieces[i] = scanPiece{spec: i, lo: sp.Start, hi: sp.End}
		if sp.Route == ToAll {
			b.pieces[i].lo, b.pieces[i].hi = nil, nil
		}
	}
	if err := cl.multiRoute(table, len(specs), &b, true); err != nil {
		return nil, err
	}
	out := make([][]lsm.ScanResult, len(specs))
	for _, pc := range b.pieces {
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

// scanBatch is the batch of MultiScan: its items are pieces, each one
// spec's part in one region.
type scanBatch struct {
	specs  []ScanSpec
	ts     kv.Timestamp
	limit  int
	pieces []scanPiece
}

// scanPiece is one spec's read in one region. Its [lo, hi) is the store
// range it reads or, for ToAll, the routing range of the region it was
// sent to.
type scanPiece struct {
	spec   int
	lo, hi []byte
	done   bool
	res    []lsm.ScanResult
}

func (b *scanBatch) place(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
	cur, route := b.pieces[i], b.specs[b.pieces[i].spec].Route
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
				return pl.pos == p && b.pieces[pl.item].spec == cur.spec
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
		next := scanPiece{spec: cur.spec, lo: lo, hi: hi}
		if reuse {
			b.pieces[i], reuse = next, false
			dst = append(dst, placement{p, i})
		} else {
			b.pieces = append(b.pieces, next)
			dst = append(dst, placement{p, len(b.pieces) - 1})
		}
	}
	return dst, nil
}

func (b *scanBatch) send(ri RegionInfo, s *RegionServer, group []int) error {
	ranges := make([]lsm.ScanRange, len(group))
	for j, i := range group {
		sp := b.specs[b.pieces[i].spec]
		ranges[j] = lsm.ScanRange{Start: sp.Start, End: sp.End}
		if sp.Route != ToAll {
			ranges[j] = lsm.ScanRange{Start: b.pieces[i].lo, End: b.pieces[i].hi}
		}
	}
	res, err := s.MultiScan(ri.ID, ranges, b.ts, b.limit)
	if err != nil {
		return err
	}
	for j, i := range group {
		b.pieces[i].res, b.pieces[i].done = res[j], true
	}
	return nil
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
