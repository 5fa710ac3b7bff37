package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
	"diffindex/internal/sstable"
)

// RegionServer hosts regions and serves puts, gets and scans for their key
// ranges (§2.2). A server can crash (losing all in-memory state: memtables
// and any coprocessor queues) and its regions then recover on other servers
// from the shared file system.
type RegionServer struct {
	id      string
	cluster *Cluster
	cache   *sstable.BlockCache

	mu      sync.RWMutex
	regions map[string]*Region
	opening map[string]*openCall // OpenRegion calls in flight, by region ID
	// sweepMu is held while crash releases the hosted regions, so a
	// CloseRegion that finds its region already gone can wait until the
	// store is closed.
	sweepMu sync.Mutex
	crashed atomic.Bool
	// draining marks a server being decommissioned: it still serves its
	// regions while the master hands them off, but receives no new
	// assignments. removed marks the decommission complete; the server is
	// permanently out of the cluster and may not be restarted.
	draining atomic.Bool
	removed  atomic.Bool
}

func newRegionServer(c *Cluster, id string) *RegionServer {
	s := &RegionServer{
		id:      id,
		cluster: c,
		cache:   sstable.NewBlockCache(c.cfg.BlockCacheBytes),
		regions: make(map[string]*Region),
		opening: make(map[string]*openCall),
	}
	// Computed gauges read through CacheStats so they keep reporting the
	// replacement cache after a crash.
	c.metrics.RegisterGaugeFunc("diffindex_block_cache_hits", func() int64 {
		hits, _ := s.CacheStats()
		return hits
	}, metrics.L("server", id))
	c.metrics.RegisterGaugeFunc("diffindex_block_cache_misses", func() int64 {
		_, misses := s.CacheStats()
		return misses
	}, metrics.L("server", id))
	return s
}

// ID returns the server's node name (also its simnet address).
func (s *RegionServer) ID() string { return s.id }

// CacheStats returns the server's block-cache cumulative hit and miss
// counts (rolled up across the cache's shards).
func (s *RegionServer) CacheStats() (hits, misses int64) {
	s.mu.RLock()
	cache := s.cache
	s.mu.RUnlock()
	return cache.Stats()
}

// Crashed reports whether the server is down.
func (s *RegionServer) Crashed() bool { return s.crashed.Load() }

// Draining reports whether the server is being decommissioned: still
// serving, but receiving no new region assignments.
func (s *RegionServer) Draining() bool { return s.draining.Load() }

// Removed reports whether the server has been decommissioned out of the
// cluster for good.
func (s *RegionServer) Removed() bool { return s.removed.Load() }

// setDraining flips the decommission-in-progress flag.
func (s *RegionServer) setDraining(v bool) { s.draining.Store(v) }

// markRemoved finalizes a decommission: the server is down and will never
// come back (RestartServer refuses removed servers).
func (s *RegionServer) markRemoved() {
	s.removed.Store(true)
	s.crash()
}

// TakeRegionLoads returns each hosted region's operation count accumulated
// since the previous call, resetting the counters — one balancer round's
// per-region load deltas.
func (s *RegionServer) TakeRegionLoads() map[string]int64 {
	if s.crashed.Load() {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.regions))
	for id, r := range s.regions {
		out[id] = r.ops.Swap(0)
	}
	return out
}

func regionDir(info RegionInfo) string {
	return fmt.Sprintf("tables/%s/%s", info.Table, info.ID)
}

// mapStoreErr converts a closed-store error into a routing miss: a request
// that raced a region close (crash, split, merge) should re-route and
// retry, exactly as if the region had already moved.
func mapStoreErr(err error) error {
	if errors.Is(err, lsm.ErrClosed) {
		return ErrRegionNotFound
	}
	return err
}

// openCall is one OpenRegion in flight; err is set before done closes.
type openCall struct {
	done chan struct{}
	err  error
}

// OpenRegion opens (or recovers) a region on this server. Cells found in the
// region's WAL are replayed into a fresh memtable and surfaced to the
// table's coprocessor via OnReplay, after the region is fully open (§5.3:
// replayed puts re-enter the AUQ).
func (s *RegionServer) OpenRegion(info RegionInfo) (err error) {
	if s.crashed.Load() {
		return ErrServerDown
	}
	// Reserve the slot first: two lsm stores must never be open on one
	// region directory at once. An already-hosted region makes the open a
	// no-op; a second open of a region already opening waits for the first
	// and returns its result, so no caller takes a failed open for a placed
	// region.
	s.mu.Lock()
	if _, ok := s.regions[info.ID]; ok {
		s.mu.Unlock()
		return nil
	}
	if call, ok := s.opening[info.ID]; ok {
		s.mu.Unlock()
		<-call.done
		return call.err
	}
	call := &openCall{done: make(chan struct{})}
	s.opening[info.ID] = call
	cache := s.cache
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.opening[info.ID] == call {
			delete(s.opening, info.ID)
		}
		s.mu.Unlock()
		call.err = err
		close(call.done)
	}()

	region := &Region{Info: info, server: s}
	var replayed []kv.Cell
	store, err := lsm.Open(lsm.Options{
		FS:               s.cluster.FS,
		Dir:              regionDir(info),
		MemtableBytes:    s.cluster.cfg.MemtableBytes,
		CompactionFanIn:  s.cluster.cfg.CompactionFanIn,
		RetainTombstones: s.cluster.retainsTombstones(info.Table),
		BlockCache:       cache,
		ScrubInterval:    s.cluster.cfg.ScrubInterval,
		ScrubBlockPace:   s.cluster.cfg.ScrubBlockPace,
		Metrics:          s.cluster.metrics,
		MetricsTable:     info.Table,
		OnReplay: func(c kv.Cell) {
			s.cluster.clock.Observe(c.Ts)
			replayed = append(replayed, c.Clone())
		},
	})
	if err != nil {
		return fmt.Errorf("open region %s: %w", info.ID, err)
	}
	region.store = store

	ctx := RegionCtx{Region: region, Server: s, Cluster: s.cluster}
	store.RegisterPreFlush(func() error {
		if cp := s.cluster.coprocessor(info.Table); cp != nil {
			return cp.PreFlush(ctx)
		}
		return nil
	})
	store.RegisterPostCompact(func(gc lsm.CompactionGC) {
		// A crashed server's regions are closed, but a round that was
		// already installing may still fire; its in-memory observations
		// must not leak into the revived cluster state.
		if s.crashed.Load() {
			return
		}
		if cp := s.cluster.coprocessor(info.Table); cp != nil {
			cp.PostCompact(ctx, gc)
		}
	})

	s.mu.Lock()
	if s.crashed.Load() {
		// The server died while the store was opening: crash() already
		// swept s.regions, so registering now would leave a live store on
		// a dead server while recovery reopens the region elsewhere.
		s.mu.Unlock()
		store.Close()
		return ErrServerDown
	}
	s.regions[info.ID] = region
	s.mu.Unlock()

	if cp := s.cluster.coprocessor(info.Table); cp != nil && len(replayed) > 0 {
		// The replayed cells already sit in the memtable; re-enqueueing
		// their index work must be atomic with respect to flushes, exactly
		// like the put pipeline (§5.3 PR(Flushed) = ∅). Outside the gate an
		// auto-flush could truncate the WAL before a replayed task is back
		// in the AUQ, and a subsequent region close would then drop the
		// task with no replay source left.
		//
		// The dispatch runs in the background: enqueues can block on AUQ
		// backpressure until some other region heals, and OpenRegion's
		// callers (a balancer move, crash recovery) may hold the topology
		// lock that healing needs — blocking here would deadlock recovery
		// against admission control. ReplayStarted keeps the work visible
		// to convergence waits until the dispatch finishes.
		done := func() {}
		if rs, ok := cp.(interface{ ReplayStarted(int) func() }); ok {
			done = rs.ReplayStarted(len(replayed))
		}
		go func() {
			defer done()
			_ = store.Pipeline(func() error {
				for _, c := range replayed {
					cp.OnReplay(ctx, c)
				}
				return nil
			})
		}()
	}
	return nil
}

// CloseRegion closes a hosted region, leaving its files for another server.
// It first waits out an open of the region in flight here and, when the
// region is already gone, a crash still releasing it: on return this server
// holds no store for the region.
func (s *RegionServer) CloseRegion(regionID string) error {
	s.mu.Lock()
	for call := s.opening[regionID]; call != nil; call = s.opening[regionID] {
		s.mu.Unlock()
		<-call.done
		s.mu.Lock()
	}
	region, ok := s.regions[regionID]
	delete(s.regions, regionID)
	s.mu.Unlock()
	if !ok {
		s.sweepMu.Lock()
		s.sweepMu.Unlock()
		return ErrRegionNotFound
	}
	// The AUQ goes before the store: a flush blocked in its pre-flush drain
	// then gives up instead of holding the flushMu that Store.Close waits on.
	if cp := s.cluster.coprocessor(region.Info.Table); cp != nil {
		cp.OnRegionClose(RegionCtx{Region: region, Server: s, Cluster: s.cluster})
	}
	return region.store.Close()
}

func (s *RegionServer) region(id string) (*Region, error) {
	if s.crashed.Load() {
		return nil, ErrServerDown
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	region, ok := s.regions[id]
	if !ok {
		return nil, ErrRegionNotFound
	}
	if region.frozen.Load() {
		return nil, ErrRegionNotFound // mid-split or merge: clients re-route and retry
	}
	// Every data RPC that resolved a region counts toward its load, the
	// balancer's one signal (TakeRegionLoads).
	region.ops.Add(1)
	return region, nil
}

// FreezeRegion makes a hosted region reject requests while a split or merge
// hands it over. The store stays open for the transition's own flush.
func (s *RegionServer) FreezeRegion(id string) error {
	if s.crashed.Load() {
		return ErrServerDown
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	region, ok := s.regions[id]
	if !ok {
		return ErrRegionNotFound
	}
	region.frozen.Store(true)
	return nil
}

// Mutation is one row write: the columns of Put are written and those
// named in Del tombstoned, all at one timestamp.
type Mutation struct {
	Put map[string][]byte
	Del []string
	// DelRow tombstones every column the row has visible, except those in
	// Put, in place of Del: a row delete, resolved under the row lock.
	DelRow bool
}

// MutateRow applies one row mutation: the server assigns the timestamp,
// logs and applies the cells, then invokes the table's coprocessor (the
// synchronous part of index maintenance runs inside this RPC). When
// wantOld is set the previous visible row values (at ts−δ) are returned —
// the hook async-session uses to build client-side delete markers (§5.2).
// tr, when non-nil, is the client operation's trace; the store and the
// coprocessor add their stage durations to it.
func (s *RegionServer) MutateRow(regionID string, row []byte, m Mutation, wantOld bool, tr *metrics.Trace) (kv.Timestamp, map[string][]byte, error) {
	region, err := s.region(regionID)
	if err != nil {
		return 0, nil, err
	}
	defer region.lockRow(row).Unlock()
	// The whole write pipeline — timestamp, pre-image, base apply and
	// coprocessor — runs inside the store's write gate. That makes
	// asynchronous index work enqueued by the observer atomic with the
	// memtable insert (the PR(Flushed) = ∅ invariant of §5.3), and no flush
	// swaps the memtable between the timestamp and the apply, so every cell
	// a flush writes is older than every task queued after it: no pre-image
	// read of a queued task falls below the GC horizon (DESIGN.md §13).
	// Index maintenance failures never fail the base write (§6.2): the
	// observer queues retries itself.
	var ts kv.Timestamp
	var old map[string][]byte
	err = region.store.Pipeline(func() (err error) {
		ts = s.cluster.clock.Next()
		if wantOld || m.DelRow {
			if old, err = region.LocalGetRow(row, ts-kv.Delta); err != nil {
				return err
			}
		}
		if m.DelRow {
			m.Del = nil
			for col := range old {
				if _, put := m.Put[col]; !put {
					m.Del = append(m.Del, col)
				}
			}
		}
		cells := make([]kv.Cell, 0, len(m.Put)+len(m.Del))
		for col, val := range m.Put {
			cells = append(cells, kv.Cell{Key: kv.BaseKey(row, []byte(col)), Value: val, Ts: ts, Kind: kv.KindPut})
		}
		for _, col := range m.Del {
			cells = append(cells, kv.Cell{Key: kv.BaseKey(row, []byte(col)), Ts: ts, Kind: kv.KindDelete})
		}
		if err := region.store.ApplyBatchLocked(cells, tr); err != nil {
			return err
		}
		if cp := s.cluster.coprocessor(region.Info.Table); cp != nil {
			cp.PostMutate(RegionCtx{Region: region, Server: s, Cluster: s.cluster, Trace: tr}, row, m, ts)
		}
		return nil
	})
	if err != nil {
		return 0, nil, mapStoreErr(err)
	}
	return ts, old, nil
}

// Apply writes pre-timestamped cells directly (no coprocessor): the raw
// path used for index-table maintenance operations and idempotent
// redelivery, where timestamps must equal the base entry's (§4.3).
func (s *RegionServer) Apply(regionID string, cells []kv.Cell) error {
	region, err := s.region(regionID)
	if err != nil {
		return err
	}
	for _, c := range cells {
		s.cluster.clock.Observe(c.Ts)
	}
	return mapStoreErr(region.store.ApplyBatch(cells))
}

// GetResult is one item of a MultiGet reply. Found reports whether any
// visible non-deleted version of the key exists.
type GetResult = lsm.GetResult

// MultiGet serves a batch of point reads against one region in a single
// RPC — the server half of the region-grouped read path. The whole batch
// reads one snapshot of the region's store. Results are positional: out[i]
// answers keys[i].
func (s *RegionServer) MultiGet(regionID string, keys [][]byte, ts kv.Timestamp) ([]GetResult, error) {
	region, err := s.region(regionID)
	if err != nil {
		return nil, err
	}
	out := make([]GetResult, len(keys))
	if err := region.store.MultiGet(keys, ts, out); err != nil {
		return nil, mapStoreErr(err)
	}
	return out, nil
}

// MultiScan serves a batch of range reads against one region in a single
// RPC — the server half of the region-grouped range read. The whole batch
// reads one snapshot of the region's store: out[i] answers ranges[i], up to
// limit results each.
func (s *RegionServer) MultiScan(regionID string, ranges []lsm.ScanRange, ts kv.Timestamp, limit int) ([][]lsm.ScanResult, error) {
	region, err := s.region(regionID)
	if err != nil {
		return nil, err
	}
	out, err := region.store.MultiScan(ranges, ts, limit)
	return out, mapStoreErr(err)
}

// Flush flushes one region. It is an administrative operation and works on
// frozen (mid-split) regions too.
func (s *RegionServer) Flush(regionID string) error {
	if s.crashed.Load() {
		return ErrServerDown
	}
	s.mu.RLock()
	region, ok := s.regions[regionID]
	s.mu.RUnlock()
	if !ok {
		return ErrRegionNotFound
	}
	return region.store.Flush()
}

// FlushAll flushes every hosted region.
func (s *RegionServer) FlushAll() error {
	for _, r := range s.hosted() {
		if err := r.store.Flush(); err != nil && !errors.Is(err, lsm.ErrClosed) {
			return err
		}
	}
	return nil
}

// WaitCompactions blocks until every hosted region's background compaction
// pipeline is idle — in-flight rounds finished and their PostCompact hooks
// (including the piggybacked index cleanse) returned.
func (s *RegionServer) WaitCompactions() {
	for _, r := range s.hosted() {
		r.store.WaitCompactions()
	}
}

// hosted returns the hosted regions; none once the server is down.
func (s *RegionServer) hosted() []*Region {
	if s.crashed.Load() {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Region, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r)
	}
	return out
}

// Regions returns the infos of all hosted regions.
func (s *RegionServer) Regions() []RegionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RegionInfo, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r.Info)
	}
	return out
}

// crash kills the server: every in-memory structure (memtables, block
// cache, any coprocessor queue keyed to this server) is lost; WAL segments
// and SSTables survive in the shared FS. Subsequent RPCs fail with
// ErrServerDown. Idempotent: regions are released exactly once.
func (s *RegionServer) crash() {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	s.crashed.Store(true)
	s.mu.Lock()
	regions := s.regions
	s.regions = make(map[string]*Region)
	s.mu.Unlock()
	if len(regions) == 0 {
		return
	}
	for _, r := range regions {
		if cp := s.cluster.coprocessor(r.Info.Table); cp != nil {
			cp.OnRegionClose(RegionCtx{Region: r, Server: s, Cluster: s.cluster})
		}
		r.store.Close() // releases files; unflushed data stays in the WAL
	}
	s.mu.Lock()
	s.cache = sstable.NewBlockCache(s.cluster.cfg.BlockCacheBytes)
	s.mu.Unlock()
}

// restart brings a crashed server back to life with empty in-memory state —
// the inverse of crash. The master then re-opens regions on it; WAL replay
// rebuilds their memtables and OnReplay re-enqueues index work (§5.3).
func (s *RegionServer) restart() {
	s.mu.Lock()
	s.cache = sstable.NewBlockCache(s.cluster.cfg.BlockCacheBytes)
	s.regions = make(map[string]*Region)
	s.opening = make(map[string]*openCall)
	s.mu.Unlock()
	s.crashed.Store(false)
}

// hostsUnfrozen reports whether the server currently serves the region and
// no split or merge has frozen it. The master's rebalancer only steals
// regions that are actually movable.
func (s *RegionServer) hostsUnfrozen(regionID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.regions[regionID]
	return ok && !r.frozen.Load()
}

// markDown makes the server reject requests without releasing its regions
// yet. Cluster shutdown marks every server down first so no surviving APS
// worker wastes retries against peers that are about to close.
func (s *RegionServer) markDown() { s.crashed.Store(true) }

func (s *RegionServer) close() error {
	s.crash()
	return nil
}
