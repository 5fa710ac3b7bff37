// Package diffindex is a from-scratch Go reproduction of Diff-Index
// (Tan, Tata, Tang, Fong: "Diff-Index: Differentiated Index in Distributed
// Log-Structured Data Stores", EDBT 2014): global secondary indexes over a
// distributed log-structured (LSM) data store, with a spectrum of index
// maintenance schemes trading consistency for latency:
//
//	SyncFull     causal consistent      index fully maintained inside the put
//	SyncInsert   causal w/ read-repair  fast puts, stale entries cleaned on read
//	AsyncSimple  eventually consistent  index maintained by a background service
//	AsyncSession session consistent     async plus client-side read-your-writes
//
// The package bundles the whole system the paper runs on: an HBase-style
// cluster (key-range partitioned regions, WAL + memtable + SSTable LSM
// stores, master-driven failure recovery) over a simulated network and disk,
// so experiments reproduce the paper's latency asymmetries on a laptop.
//
// # Quick start
//
//	db := diffindex.Open(diffindex.Options{Servers: 4})
//	defer db.Close()
//	db.CreateTable("reviews", nil)
//	db.CreateIndex("reviews", []string{"product"}, diffindex.SyncInsert, nil)
//	cl := db.NewClient("app-1")
//	cl.Put("reviews", []byte("r1"), diffindex.Cols{"product": []byte("p42"), "stars": []byte("5")})
//	hits, _ := cl.GetByIndex("reviews", []string{"product"}, []byte("p42"))
package diffindex

import (
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/core"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/simnet"
	"diffindex/internal/vfs"
)

// Scheme selects how an index is maintained (§3.4 of the paper). Each
// index gets its scheme at CreateIndex and keeps it.
type Scheme int

const (
	// SyncFull completes all index maintenance inside the put: strongest
	// consistency, highest update latency (it pays a base-table read).
	SyncFull Scheme = iota
	// SyncInsert inserts the new index entry synchronously and repairs
	// stale entries lazily during reads: fast updates, slower reads.
	SyncInsert
	// AsyncSimple queues index maintenance for background execution:
	// fastest updates and reads, eventually consistent.
	AsyncSimple
	// AsyncSession is AsyncSimple plus read-your-writes within a Session.
	AsyncSession
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string { return core.Scheme(s).String() }

func (s Scheme) internal() core.Scheme { return core.Scheme(s) }

// Cols is a row's column values.
type Cols = map[string][]byte

// Options configures a DB. The zero value is a usable 3-server cluster with
// no simulated latencies (fastest; good for tests). Latency fields model
// the environment of the paper's experiments.
type Options struct {
	// Servers is the number of region servers (default 3).
	Servers int

	// NetRTT models the cluster network round-trip per RPC.
	NetRTT time.Duration

	// DiskReadLatency is charged per SSTable block read (a random I/O);
	// DiskWriteLatency per sequential append; DiskSyncLatency per WAL sync.
	DiskReadLatency  time.Duration
	DiskWriteLatency time.Duration
	DiskSyncLatency  time.Duration

	// BaseFS, when non-nil, is the file system the cluster's simulated disk
	// wraps instead of a fresh in-memory FS. The chaos harness passes a
	// vfs.FaultFS here so seeded disk faults compose with the latency model.
	BaseFS vfs.FS

	// BlockCacheBytes sizes each server's block cache (default 32 MiB;
	// negative disables caching).
	BlockCacheBytes int64
	// MemtableBytes is the per-region flush threshold (default 4 MiB).
	MemtableBytes int64
	// CompactionThreshold is the SSTable count that triggers a compaction
	// (default 4).
	CompactionThreshold int
	// CompactionFanIn bounds how many SSTables one incremental compaction
	// round merges per region store (default 4). Each round picks at most
	// this many similar-sized tables, so compaction I/O stays bounded no
	// matter how many tables a write burst accumulates.
	CompactionFanIn int

	// AUQMaxBacklog, when > 0, caps each region's pending asynchronous
	// index work: an arrival that would exceed the cap is shed to the
	// synchronous path (maintained inline in the put), bounding both queue
	// memory and index staleness under overload. 0 keeps the classic
	// block-at-capacity backpressure.
	AUQMaxBacklog int

	// BalancerInterval, when > 0, runs the continuous load-aware balancer:
	// every interval the master compares per-server op counts and migrates
	// one region from the most- to the least-loaded server when the most
	// loaded carries more than twice the least and at least 16 ops more.
	// 0 disables the loop.
	BalancerInterval time.Duration

	// UnsafeDisableDrainOnFlush turns off the drain-AUQ-before-flush
	// recovery protocol. A crash after a flush then silently loses queued
	// index updates. Exists only for the ablation experiment that
	// demonstrates why the protocol is needed.
	UnsafeDisableDrainOnFlush bool

	// ScrubInterval is the pause between scrub cycles per region store
	// (default 5s); ScrubBlockPace the pause between block verifications
	// (default 1ms ≈ 4 MiB/s per store; negative disables pacing).
	ScrubInterval  time.Duration
	ScrubBlockPace time.Duration

	// DisableTracing turns off per-operation traces (the op-latency
	// histograms and the slow-op log). Stage and counter metrics still
	// record; see DESIGN.md's Observability section for what each costs.
	DisableTracing bool
}

// DB is a Diff-Index-enabled distributed store: the cluster plus the index
// runtime. All methods are safe for concurrent use.
type DB struct {
	c *cluster.Cluster
	m *core.Manager
}

// Open builds the cluster and index runtime.
func Open(opts Options) *DB {
	c := cluster.New(cluster.Config{
		Servers: opts.Servers,
		Net:     simnet.Config{RTT: opts.NetRTT},
		Disk: vfs.LatencyProfile{
			ReadLatency:  opts.DiskReadLatency,
			WriteLatency: opts.DiskWriteLatency,
			SyncLatency:  opts.DiskSyncLatency,
		},
		BaseFS:              opts.BaseFS,
		BlockCacheBytes:     opts.BlockCacheBytes,
		MemtableBytes:       opts.MemtableBytes,
		CompactionThreshold: opts.CompactionThreshold,
		CompactionFanIn:     opts.CompactionFanIn,
		ScrubInterval:       opts.ScrubInterval,
		ScrubBlockPace:      opts.ScrubBlockPace,
		DisableTracing:      opts.DisableTracing,
	})
	m := core.NewManager(c, core.ManagerOptions{
		MaxBacklog:          opts.AUQMaxBacklog,
		DisableDrainOnFlush: opts.UnsafeDisableDrainOnFlush,
	})
	if opts.BalancerInterval > 0 {
		c.Master.StartBalancer(opts.BalancerInterval)
	}
	return &DB{c: c, m: m}
}

// CreateTable creates a base table pre-split at the given row keys into
// len(splits)+1 regions spread across the servers.
func (db *DB) CreateTable(name string, splits [][]byte) error {
	return db.c.Master.CreateTable(name, splits)
}

// CreateIndex defines a global secondary index on table columns with the
// given maintenance scheme, creating and backfilling its index table.
// splits pre-partition the index table by index key (see IndexSplitPoints
// for a helper).
func (db *DB) CreateIndex(table string, columns []string, scheme Scheme, splits [][]byte) error {
	return db.m.CreateIndex(core.IndexDef{Table: table, Columns: columns, Scheme: scheme.internal()}, splits)
}

// CreateLocalIndex defines a LOCAL secondary index (§3.1): entries co-locate
// with the region holding the indexed row, so maintenance is synchronous and
// free of network hops, but every query broadcasts to all of the table's
// regions. Contrast with CreateIndex's global indexes, whose updates pay
// remote calls but whose selective queries touch one region. Local indexes
// are always causal consistent.
func (db *DB) CreateLocalIndex(table string, columns []string) error {
	return db.m.CreateIndex(core.IndexDef{Table: table, Columns: columns, Local: true}, nil)
}

// DropIndex removes an index definition (global or local).
func (db *DB) DropIndex(table string, columns []string) bool {
	if db.m.DropIndex(table, core.IndexDef{Table: table, Columns: columns}.Name()) {
		return true
	}
	return db.m.DropIndex(table, core.IndexDef{Table: table, Columns: columns, Local: true}.Name())
}

// NewClient returns a client routed as the named network node.
func (db *DB) NewClient(name string) *Client {
	return &Client{db: db, c: cluster.NewClient(db.c, name)}
}

// FlushAll flushes every region's memtable to SSTables, draining the AUQs
// first per the recovery protocol. Experiments use it to make reads
// disk-bound.
func (db *DB) FlushAll() error { return db.c.FlushAll() }

// WaitForIndexes blocks until all asynchronous index work has been applied
// or the timeout elapses, reporting whether the indexes converged.
func (db *DB) WaitForIndexes(timeout time.Duration) bool {
	return db.m.WaitForConvergence(timeout)
}

// PendingIndexUpdates returns the number of queued-plus-in-flight
// asynchronous index updates.
func (db *DB) PendingIndexUpdates() int64 { return db.m.QueueDepth() }

// Servers lists all region-server IDs.
func (db *DB) Servers() []string { return db.c.ServerIDs() }

// LiveServers lists the servers currently accepting requests.
func (db *DB) LiveServers() []string { return db.c.LiveServerIDs() }

// CrashServer kills a region server; its regions recover on live servers
// via WAL replay, and lost asynchronous index work is re-enqueued (§5.3).
func (db *DB) CrashServer(id string) error { return db.c.Master.CrashServer(id) }

// RestartServer brings a crashed region server back online. The server
// rejoins empty and receives region assignments again; each moved region
// replays its WAL and re-enqueues asynchronous index work, exactly as in
// crash recovery (§5.3).
func (db *DB) RestartServer(id string) error { return db.c.Master.RestartServer(id) }

// AddServer grows the cluster by one empty region server and returns its ID.
// The new server receives regions through new-table assignment and the
// balancer loop (Options.BalancerInterval).
func (db *DB) AddServer() string { return db.c.AddServer() }

// RemoveServer decommissions a live server gracefully: it stops receiving
// assignments, its regions are flushed and handed off to the remaining
// servers, and it is retired permanently (it cannot be restarted). The
// elastic inverse of AddServer; contrast with CrashServer, which models
// failure.
func (db *DB) RemoveServer(id string) error { return db.c.Master.DecommissionServer(id) }

// RegionDesc describes one region of a table.
type RegionDesc struct {
	ID         string
	Start, End []byte
	Server     string
}

// Regions lists a table's regions in key order.
func (db *DB) Regions(table string) ([]RegionDesc, error) {
	infos, err := db.c.Master.RegionsOf(table)
	if err != nil {
		return nil, err
	}
	out := make([]RegionDesc, len(infos))
	for i, ri := range infos {
		out[i] = RegionDesc{ID: ri.ID, Start: ri.Start, End: ri.End, Server: ri.Server}
	}
	return out, nil
}

// SplitRegion splits a region in two at splitKey (a routing key strictly
// inside the region), like HBase's manual region split: the region is
// frozen, flushed (draining its AUQ), and its data is redistributed into
// two child regions — base cells and local-index entries by row, raw index
// entries by key. Clients re-route transparently.
func (db *DB) SplitRegion(regionID string, splitKey []byte) error {
	return db.c.Master.SplitRegion(regionID, splitKey)
}

// MergeRegions merges two adjacent regions into one, the inverse of
// SplitRegion.
func (db *DB) MergeRegions(lowerID, upperID string) error {
	return db.c.Master.MergeRegions(lowerID, upperID)
}

// PartitionNetwork cuts connectivity between two nodes (servers or
// clients) until HealNetwork.
func (db *DB) PartitionNetwork(a, b string) { db.c.Net.Partition(a, b) }

// HealNetwork restores all connectivity.
func (db *DB) HealNetwork() { db.c.Net.HealAll() }

// IOCounts reports Diff-Index's cumulative I/O operation counts along the
// axes of the paper's Table 2.
type IOCounts struct {
	BasePut, BaseRead  int64
	IndexPut, IndexDel int64
	IndexRead          int64
	AsyncBaseRead      int64
	AsyncIndexPut      int64
	AsyncIndexDel      int64
}

// IOCounts returns a snapshot of the index-maintenance I/O counters.
func (db *DB) IOCounts() IOCounts {
	s := db.m.Counters.Snapshot()
	return IOCounts{
		BasePut: s.BasePut, BaseRead: s.BaseRead,
		IndexPut: s.IndexPut, IndexDel: s.IndexDel, IndexRead: s.IndexRead,
		AsyncBaseRead: s.AsyncBaseRead, AsyncIndexPut: s.AsyncIndexPut, AsyncIndexDel: s.AsyncIndexDel,
	}
}

// StalenessStats summarizes the measured index-after-data time lag of
// asynchronous indexes (T2 − T1, §8.2), in nanoseconds.
type StalenessStats struct {
	Count          int64
	Mean           float64
	P50, P95, P999 int64
	Max            int64
}

// Staleness returns the async staleness distribution collected so far.
func (db *DB) Staleness() StalenessStats {
	s := db.m.Staleness().Snapshot()
	return StalenessStats{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P999: s.P999, Max: s.Max}
}

// ResetStaleness clears the staleness histogram for a new measurement phase.
func (db *DB) ResetStaleness() { db.m.ResetStaleness() }

// Close shuts the cluster down.
func (db *DB) Close() error { return db.c.Close() }

// Internal exposes the underlying cluster and manager for the in-repo
// benchmark harness; it is not part of the stable API.
func (db *DB) Internal() (*cluster.Cluster, *core.Manager) { return db.c, db.m }

// Row is one base-table row.
type Row struct {
	Key  []byte
	Cols map[string][]byte
}

// IndexHit is one index-lookup result: a base row key plus the timestamp
// of the index entry that produced it.
type IndexHit struct {
	Row []byte
	Ts  int64
}

// Client performs data and index operations against the cluster. Each
// client is a distinct network node; its requests pay the simulated
// client↔server latency.
type Client struct {
	db *DB
	c  *cluster.Client
}

// Put writes a row's columns, returning the server-assigned timestamp.
// Index maintenance for the row happens per each index's scheme.
func (cl *Client) Put(table string, row []byte, cols Cols) (int64, error) {
	return cl.c.Put(table, row, cols)
}

// Delete tombstones the given columns of a row; nil cols deletes the whole
// row.
func (cl *Client) Delete(table string, row []byte, cols []string) (int64, error) {
	return cl.c.Delete(table, row, cols)
}

// Get reads one column of a row. ok reports whether the column exists.
func (cl *Client) Get(table string, row []byte, col string) (value []byte, ts int64, ok bool, err error) {
	return cl.c.Get(table, row, col)
}

// GetRow reads all columns of a row; a nil map means no visible row.
func (cl *Client) GetRow(table string, row []byte) (Cols, error) {
	return cl.c.GetRow(table, row)
}

// Scan reads rows in [startRow, endRow) (nil bounds are open) up to limit.
func (cl *Client) Scan(table string, startRow, endRow []byte, limit int) ([]Row, error) {
	return cl.ScanAsOf(table, startRow, endRow, kv.MaxTimestamp, limit)
}

// ErrHistoryTrimmed is returned by the as-of read methods for a timestamp
// below the GC horizon of a region they read: each region's compaction
// keeps, per key, only the newest version at or below that horizon, so the
// read refuses rather than guess. At or above the horizon every as-of read
// is exact; a read at the present is never refused (DESIGN.md §13).
var ErrHistoryTrimmed = lsm.ErrHistoryTrimmed

// GetAsOf reads one column of a row as it stood at timestamp ts — any
// timestamp previously returned by Put or Delete, or a past Staleness
// observation point. ok is false when the column did not exist at ts
// (never written, or deleted). It returns ErrHistoryTrimmed when ts is
// below the row's region's GC horizon.
func (cl *Client) GetAsOf(table string, row []byte, col string, ts int64) (value []byte, cellTs int64, ok bool, err error) {
	return cl.c.GetAsOf(table, row, col, ts)
}

// GetRowAsOf reads all columns of a row as they stood at timestamp ts; a
// nil map means no visible row at ts. It returns ErrHistoryTrimmed when ts
// is below the row's region's GC horizon.
func (cl *Client) GetRowAsOf(table string, row []byte, ts int64) (Cols, error) {
	return cl.c.GetRowAsOf(table, row, ts)
}

// ScanAsOf reads rows in [startRow, endRow) as they stood at timestamp ts,
// up to limit rows — time-travel Scan. It returns ErrHistoryTrimmed when ts
// is below the GC horizon of any region the scan reads.
func (cl *Client) ScanAsOf(table string, startRow, endRow []byte, ts int64, limit int) ([]Row, error) {
	rows, err := cl.c.Scan(table, startRow, endRow, ts, limit)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Key: r.Key, Cols: r.Cols}
	}
	return out, nil
}

// GetByIndex returns the row keys whose indexed column(s) equal value. For
// sync-insert indexes this performs the read-repair double check.
func (cl *Client) GetByIndex(table string, columns []string, value []byte) ([]IndexHit, error) {
	hits, err := cl.db.m.GetByIndex(cl.c, table, columns, value)
	return convertHits(hits), err
}

// RangeByIndex returns rows whose indexed value v satisfies low ≤ v ≤ high
// (nil high = unbounded), up to limit hits, in index-value order.
func (cl *Client) RangeByIndex(table string, columns []string, low, high []byte, limit int) ([]IndexHit, error) {
	hits, err := cl.db.m.RangeByIndex(cl.c, table, columns, low, high, limit)
	return convertHits(hits), err
}

// RowsByIndex is GetByIndex plus fetching the matching base rows.
func (cl *Client) RowsByIndex(table string, columns []string, value []byte) ([]Row, error) {
	hits, err := cl.db.m.GetByIndex(cl.c, table, columns, value)
	if err != nil {
		return nil, err
	}
	rows, err := cl.db.m.FetchRows(cl.c, table, hits)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Key: r.Key, Cols: r.Cols}
	}
	return out, nil
}

// NewSession opens a session-consistent view (get_session(), §5.2): reads
// through the session see all of the session's own writes even on
// asynchronously maintained indexes.
func (cl *Client) NewSession() *Session {
	return &Session{s: cl.db.m.NewSession(cl.c)}
}

func convertHits(hits []core.IndexHit) []IndexHit {
	out := make([]IndexHit, len(hits))
	for i, h := range hits {
		out[i] = IndexHit{Row: h.Row, Ts: h.Ts}
	}
	return out
}

// Session is a session-consistent client view. It is safe for concurrent
// use; sessions expire after inactivity and End releases their memory.
type Session struct {
	s *core.Session
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.s.ID() }

// Put writes within the session, tracking private index state for
// read-your-writes.
func (s *Session) Put(table string, row []byte, cols Cols) (int64, error) {
	return s.s.Put(table, row, cols)
}

// Delete removes row columns within the session.
func (s *Session) Delete(table string, row []byte, cols []string) (int64, error) {
	return s.s.Delete(table, row, cols)
}

// GetByIndex is the session-consistent index lookup (getFromIndex, §5.2).
func (s *Session) GetByIndex(table string, columns []string, value []byte) ([]IndexHit, error) {
	hits, err := s.s.GetByIndex(table, columns, value)
	return convertHits(hits), err
}

// RangeByIndex is the session-consistent range lookup.
func (s *Session) RangeByIndex(table string, columns []string, low, high []byte, limit int) ([]IndexHit, error) {
	hits, err := s.s.RangeByIndex(table, columns, low, high, limit)
	return convertHits(hits), err
}

// Degraded reports whether session consistency was disabled because the
// session outgrew its memory cap.
func (s *Session) Degraded() bool { return s.s.Degraded() }

// End terminates the session (end_session(), §5.2).
func (s *Session) End() { s.s.End() }

// ErrSessionExpired is returned by session operations after expiry or End.
var ErrSessionExpired = core.ErrSessionExpired

// IndexVerifyReport summarizes one index's anti-entropy sweep: the
// confirmed violations by kind (missing = entry absent from the index,
// breaking index-complete; stale = entry no base row justifies, breaking
// index-exact), candidates that re-verified clean (in-flight updates), and
// the repairs applied.
type IndexVerifyReport struct {
	Table, Index   string
	Scheme         Scheme
	Missing, Stale int
	Transient      int
	Repaired       int
}

// Healthy reports whether the sweep confirmed zero violations.
func (r IndexVerifyReport) Healthy() bool { return r.Missing == 0 && r.Stale == 0 }

// VerifyIndexes runs one anti-entropy sweep over every global index of a
// table: the index pairs the base table's rows call for and the entries the
// index holds are each enumerated once, one scan per region, and diffed;
// every candidate violation is re-verified with point reads, and confirmed
// violations are repaired in place (missing entries inserted, stale entries
// deleted, at the timestamps §4.3 prescribes) — the paper's §7
// index-cleanse utility. Sweep activity is counted in
// diffindex_reconcile_*_total{source="verify"}, which feeds DB.Health.
func (cl *Client) VerifyIndexes(table string) ([]IndexVerifyReport, error) {
	reps, err := cl.db.m.VerifyIndexes(cl.c, table)
	out := make([]IndexVerifyReport, len(reps))
	for i, r := range reps {
		out[i] = IndexVerifyReport{
			Table: r.Table, Index: r.Index, Scheme: Scheme(r.Scheme),
			Missing: r.Missing, Stale: r.Stale,
			Transient: r.Transient, Repaired: r.Repaired,
		}
	}
	return out, err
}

// IndexSplitPoints builds index-table split keys from representative
// indexed values, so an index table can be pre-partitioned across servers
// the way the paper distributes item_title and item_price (§8.1).
func IndexSplitPoints(values ...[]byte) [][]byte {
	out := make([][]byte, len(values))
	for i, v := range values {
		out[i] = kv.IndexValuePrefix(v)
	}
	return out
}
