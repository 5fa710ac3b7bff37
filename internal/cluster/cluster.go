// Package cluster implements the distributed, partitioned store the paper
// deploys Diff-Index on: the HBase architecture of §2.2. Tables are split
// into key-range regions; each region is one LSM store hosted by a region
// server; a master assigns regions, detects failures and reassigns; clients
// cache the partition map and route requests over the simulated network.
//
// The package also defines the coprocessor extension point (§7): per-table
// observers that intercept puts, deletes, flushes and WAL replay — the hooks
// Diff-Index's scheme observers plug into without touching store internals.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
	"diffindex/internal/simnet"
	"diffindex/internal/vfs"
)

// Sentinel errors surfaced by cluster RPCs.
var (
	// ErrServerDown is returned by every operation on a crashed server.
	ErrServerDown = errors.New("cluster: region server is down")
	// ErrRegionNotFound means the addressed region is not hosted by the
	// server (stale client cache after a reassignment).
	ErrRegionNotFound = errors.New("cluster: region not hosted here")
	// ErrNoSuchTable is returned for operations on unknown tables.
	ErrNoSuchTable = errors.New("cluster: no such table")
	// ErrTableExists is returned when creating a table that already exists.
	ErrTableExists = errors.New("cluster: table already exists")
	// ErrNoLiveServers means region assignment found no live server.
	ErrNoLiveServers = errors.New("cluster: no live region servers")
)

// Config sizes a simulated cluster.
type Config struct {
	// Servers is the number of region servers. Defaults to 3.
	Servers int
	// Net is the network latency model.
	Net simnet.Config
	// Disk is the simulated disk profile charged on SSTable/WAL I/O.
	Disk vfs.LatencyProfile
	// BaseFS, when non-nil, is the file system the cluster's LatencyFS
	// wraps instead of a fresh MemFS. The chaos harness injects a
	// vfs.FaultFS here so disk faults compose with the latency model.
	BaseFS vfs.FS
	// BlockCacheBytes sizes each region server's block cache (§8.1 gives
	// 25% of an 8 GiB heap; scaled down here). Zero means the 32 MiB
	// default; a negative value disables caching entirely.
	BlockCacheBytes int64
	// MemtableBytes is the per-region flush threshold. Defaults to 4 MiB.
	MemtableBytes int64
	// CompactionFanIn is how many similar-sized SSTables one compaction
	// round merges per region store. Defaults to 4.
	CompactionFanIn int
	// ScrubInterval / ScrubBlockPace tune the per-region scrubber (zero
	// values take the lsm defaults: 5s between cycles, 1ms between blocks).
	ScrubInterval  time.Duration
	ScrubBlockPace time.Duration
	// Metrics is the registry every layer of the cluster records into. A
	// nil value gets a fresh registry, so metrics are always on; the
	// registry is lock-free on the hot path.
	Metrics *metrics.Registry
	// DisableTracing turns off per-operation traces (the slow-op log and
	// op-latency histograms); stage histograms still record.
	DisableTracing bool
}

// slowOpK is the size of the slow-op log: the K slowest operations are
// retained with their per-stage latency breakdowns.
const slowOpK = 32

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 3
	}
	if c.BlockCacheBytes == 0 {
		c.BlockCacheBytes = 32 << 20
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// RegionCtx is the server-side context handed to coprocessor callbacks.
type RegionCtx struct {
	Region  *Region
	Server  *RegionServer
	Cluster *Cluster
	// Trace is the trace of the client operation that triggered the
	// callback (nil when tracing is disabled or the callback has no
	// originating operation, e.g. PreFlush). Coprocessors add their stage
	// durations to it.
	Trace *metrics.Trace
}

// Coprocessor is the per-table server-side extension point, mirroring
// HBase's observer coprocessors (§7). Diff-Index registers one observer per
// indexed table; its callbacks implement the maintenance schemes.
type Coprocessor interface {
	// PostMutate runs on the hosting region server after a row mutation
	// has been applied to the base region (and before the RPC returns to
	// the client): the synchronous part of index maintenance. A delete is
	// a put of tombstones (§4.3); m.Del names them all, a row delete's
	// resolved from the pre-image.
	PostMutate(ctx RegionCtx, row []byte, m Mutation, ts kv.Timestamp)
	// PreFlush runs at the start of a region flush while writes are paused:
	// Diff-Index drains the AUQ here (§5.3). A non-nil error aborts the
	// flush before the memtable swap — returned when the drain cannot
	// complete (region closing), so the WAL keeps the undrained work.
	PreFlush(ctx RegionCtx) error
	// OnReplay is invoked for every cell recovered from the WAL when a
	// region reopens: Diff-Index re-enqueues index work (§5.3).
	OnReplay(ctx RegionCtx, c kv.Cell)
	// OnRegionClose is invoked when a region stops being served here
	// (server crash or shutdown), before its store closes. Diff-Index
	// tears down the region's AUQ: pending entries are dropped, to be
	// reconstructed by WAL replay on the next server (§5.3).
	OnRegionClose(ctx RegionCtx)
	// PostCompact runs after a compaction round of the region's store
	// garbage-collects cells, in the compaction goroutine with no store
	// locks held. Diff-Index validates the index entries that the dropped
	// base values point to — cleanse piggybacked on merge I/O instead of a
	// dedicated batch scan.
	PostCompact(ctx RegionCtx, gc lsm.CompactionGC)
}

// Cluster owns the shared infrastructure: the (simulated) distributed file
// system, the network, the master and the region servers.
type Cluster struct {
	cfg Config

	// FS is the shared fault-tolerant file system (the HDFS stand-in): any
	// server can open any region's files, which is what makes WAL-replay
	// recovery on a different server possible (§5.3).
	FS *vfs.LatencyFS
	// Net simulates the cluster network.
	Net *simnet.Network
	// Master is the management node (table creation, region assignment,
	// failure handling).
	Master *Master

	// smu guards the mutable server set: AddServer grows it at runtime and
	// DecommissionServer marks members removed, so every reader takes the
	// lock. order keeps the IDs in creation order (rs1, rs2, …) — a stable
	// ordering that survives additions, unlike sorting (rs10 < rs2).
	smu          sync.RWMutex
	servers      map[string]*RegionServer
	order        []string
	nextServerID int

	coprocs map[string]Coprocessor // by table name
	// retainTomb marks tables whose stores must keep delete markers
	// through every compaction (global-index tables: at-least-once async
	// delivery can re-insert a superseded entry long after its delete, and
	// only a surviving marker keeps it invisible). Like coprocs, written
	// before the table is created, then read-only.
	retainTomb map[string]bool

	metrics *metrics.Registry
	tracer  *metrics.Tracer

	// Scatter-gather instrumentation, shared by every client of the
	// cluster: batch waves issued (one per MultiGet/MultiScan/MultiApply),
	// the per-region RPCs those waves fanned out into, and the items they
	// carried (keys, scan pieces or cells). RPCs/waves is the realized
	// fan-out per wave; items/RPCs is the batching factor.
	fanoutWaves *metrics.Counter
	fanoutRPCs  *metrics.Counter
	fanoutItems *metrics.Counter
	// Apply RPCs delivered to region servers by any client, and the cells
	// they carried: cells/RPCs is the index-maintenance batching factor.
	applyRPCs  *metrics.Counter
	applyCells *metrics.Counter

	// clock issues write timestamps. The paper uses each region server's
	// System.currentTimeMillis (NTP-synchronized wall clocks); a single
	// shared counter is the deterministic logical equivalent and keeps
	// timestamps comparable when a region moves between servers
	// (DESIGN.md substitution 3).
	clock *kv.Clock
}

// New builds a cluster with cfg.Servers region servers, all live.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	base := cfg.BaseFS
	if base == nil {
		base = vfs.NewMemFS()
	}
	c := &Cluster{
		cfg:        cfg,
		FS:         vfs.NewLatencyFS(base, cfg.Disk),
		Net:        simnet.New(cfg.Net),
		servers:    make(map[string]*RegionServer),
		coprocs:    make(map[string]Coprocessor),
		retainTomb: make(map[string]bool),
		clock:      kv.NewClock(1),
		metrics:    cfg.Metrics,
		tracer:     metrics.NewTracer(cfg.Metrics, slowOpK, cfg.DisableTracing),
	}
	c.fanoutWaves = cfg.Metrics.Counter("diffindex_fanout_waves_total")
	c.fanoutRPCs = cfg.Metrics.Counter("diffindex_fanout_rpcs_total")
	c.fanoutItems = cfg.Metrics.Counter("diffindex_fanout_items_total")
	c.applyRPCs = cfg.Metrics.Counter("diffindex_apply_rpcs_total")
	c.applyCells = cfg.Metrics.Counter("diffindex_apply_cells_total")
	c.Master = newMaster(c)
	for i := 0; i < cfg.Servers; i++ {
		id := fmt.Sprintf("rs%d", i+1)
		c.servers[id] = newRegionServer(c, id)
		c.order = append(c.order, id)
	}
	c.nextServerID = cfg.Servers + 1
	return c
}

// AddServer brings a brand-new, empty region server online and returns its
// ID. The server holds no regions until the balancer (or an explicit
// MoveRegion) hands it load — the live scale-out path of the elastic
// cluster.
func (c *Cluster) AddServer() string {
	c.smu.Lock()
	id := fmt.Sprintf("rs%d", c.nextServerID)
	c.nextServerID++
	c.servers[id] = newRegionServer(c, id)
	c.order = append(c.order, id)
	c.smu.Unlock()
	return id
}

// noteWave records scatter-gather fan-out activity: rpcs per-region calls
// carrying items batched items. newWave marks the first dispatch round of a
// wave; retry rounds add their RPCs to the wave already counted.
func (c *Cluster) noteWave(rpcs, items int, newWave bool) {
	if newWave {
		c.fanoutWaves.Inc()
	}
	c.fanoutRPCs.Add(int64(rpcs))
	c.fanoutItems.Add(int64(items))
}

// noteApply records one applied Apply RPC carrying n cells.
func (c *Cluster) noteApply(n int) {
	c.applyRPCs.Inc()
	c.applyCells.Add(int64(n))
}

// RegisterCoprocessor attaches a coprocessor to a table. Register before
// creating the table so region-open events are observed from the start.
func (c *Cluster) RegisterCoprocessor(table string, cp Coprocessor) {
	c.coprocs[table] = cp
}

func (c *Cluster) coprocessor(table string) Coprocessor { return c.coprocs[table] }

// RetainTombstones marks a table's stores as never dropping delete markers
// at compaction. Call before creating the table, like RegisterCoprocessor.
func (c *Cluster) RetainTombstones(table string) {
	c.retainTomb[table] = true
}

func (c *Cluster) retainsTombstones(table string) bool { return c.retainTomb[table] }

// Metrics returns the cluster-wide metrics registry: the single source of
// truth every layer (WAL, LSM stores, index runtime, clients) records into.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// Tracer mints the per-operation traces for this cluster's clients.
func (c *Cluster) Tracer() *metrics.Tracer { return c.tracer }

// Server returns a region server by ID (nil if unknown). Removed servers
// are still resolvable so requests racing a decommission fail with
// ErrServerDown instead of a nil dereference.
func (c *Cluster) Server(id string) *RegionServer {
	c.smu.RLock()
	defer c.smu.RUnlock()
	return c.servers[id]
}

// ServerIDs returns all non-removed server IDs, live or crashed, in creation
// order.
func (c *Cluster) ServerIDs() []string {
	c.smu.RLock()
	defer c.smu.RUnlock()
	ids := make([]string, 0, len(c.order))
	for _, id := range c.order {
		if !c.servers[id].Removed() {
			ids = append(ids, id)
		}
	}
	return ids
}

// LiveServerIDs returns the IDs of servers currently accepting requests.
func (c *Cluster) LiveServerIDs() []string {
	var out []string
	for _, id := range c.ServerIDs() {
		if s := c.Server(id); s != nil && !s.Crashed() {
			out = append(out, id)
		}
	}
	return out
}

// AssignableServerIDs returns the live servers the master may place regions
// on: not crashed, not removed, not draining toward removal.
func (c *Cluster) AssignableServerIDs() []string {
	var out []string
	for _, id := range c.LiveServerIDs() {
		if s := c.Server(id); s != nil && !s.Draining() {
			out = append(out, id)
		}
	}
	return out
}

// FlushAll synchronously flushes every region on every live server —
// experiment setup uses it to move loaded data to SSTables so reads are
// disk-bound as in §8.1.
func (c *Cluster) FlushAll() error {
	for _, id := range c.ServerIDs() {
		if err := c.Server(id).FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// WaitCompactions blocks until every live server's background compaction
// pipeline is idle. Deterministic tests flush (arming compaction) and then
// wait here before asserting on post-compaction state.
func (c *Cluster) WaitCompactions() {
	for _, id := range c.ServerIDs() {
		c.Server(id).WaitCompactions()
	}
}

// Close shuts down every server. All servers are marked down before any
// region is released, so coprocessor workers observing a dead peer drop
// their work immediately instead of retrying against servers that are about
// to close.
func (c *Cluster) Close() error {
	c.Master.StopBalancer()
	for _, id := range c.ServerIDs() {
		c.Server(id).markDown()
	}
	var firstErr error
	for _, id := range c.ServerIDs() {
		if err := c.Server(id).close(); err != nil && firstErr == nil && !errors.Is(err, ErrServerDown) {
			firstErr = err
		}
	}
	return firstErr
}

// WaitFor polls cond until it returns true or the timeout elapses, reporting
// whether the condition was met. Tests and examples use it to wait for
// asynchronous index convergence.
func WaitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return cond()
}
