// Package bench regenerates every table and figure of the paper's
// evaluation (§8) against the simulated cluster: update and read latency vs
// throughput (Figs. 7, 8), range-query selectivity sweeps (Fig. 9),
// scale-out (Fig. 10), async staleness distributions (Fig. 11), the
// I/O-cost table (Table 2), the query-by-index vs table-scan comparison,
// and the recovery-protocol measurements of §5.3.
//
// Absolute numbers are µs-scale (simulated disk and network) rather than
// the paper's ms-scale testbed; the experiments reproduce the paper's
// *shape*: which scheme wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records the paper-vs-measured comparison.
package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"diffindex"
)

// Profile is a calibrated environment for one experiment campaign.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Servers is the region-server count (the paper's in-house cluster has
	// 8 data servers; RC2 has 40).
	Servers int
	// Records is the item-table size.
	Records int64
	// RegionsPerTable spreads each table across the cluster.
	RegionsPerTable int
	// LoaderThreads parallelize the load phase.
	LoaderThreads int
	// ThreadSweep is the client-thread ladder (the paper sweeps 1-320).
	ThreadSweep []int
	// RunTime is the measured duration per point.
	RunTime time.Duration

	// The latency model. Calibrated so that an LSM base read (disk) is
	// many times slower than a write, and index updates pay a network
	// round trip — the two asymmetries Diff-Index exploits.
	NetRTT    time.Duration
	NetJitter time.Duration
	DiskRead  time.Duration
	DiskWrite time.Duration
	DiskSync  time.Duration

	// BlockCacheBytes is sized so index tables fit in cache after warmup
	// but the base table does not (§8.1: 7.5 GB of base data per server vs
	// a 2 GB block cache makes base reads disk-bound).
	BlockCacheBytes int64
	// MemtableBytes is the per-region flush threshold.
	MemtableBytes int64

	// Seed is the root seed every per-experiment key stream derives from
	// (via SeedFor). Two runs with the same profile and seed replay the
	// same key sequences; diffbench's -seed flag sets it. Zero means the
	// default root of 1.
	Seed int64
}

// SeedFor derives the seed for one workload stream from the profile's root
// seed. salt names the experiment and k separates streams within it (e.g.
// the thread count of a sweep point), so no two streams collide while all
// remain functions of the single root.
func (p Profile) SeedFor(salt string, k int64) int64 {
	root := p.Seed
	if root == 0 {
		root = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", root, salt, k)
	return int64(h.Sum64() >> 1) // non-negative
}

// Small returns the quick profile used by `go test -bench` and the default
// diffbench run: a 4-server cluster with a few thousand rows.
//
// The latency model is ms-scale, matching both the paper's 2011-era testbed
// (~8 ms disk seeks, LAN RPCs) and this platform's sleep granularity
// (sub-millisecond sleeps are not schedulable precisely). The calibration
// reproduces the paper's ratios: a bare put ≈ RTT + WAL sync ≈ 3 ms;
// sync-insert adds one index RPC (≈2×); sync-full additionally pays a
// disk-bound base read plus the delete RPC (≈5×).
func Small() Profile {
	return Profile{
		Name:            "small",
		Servers:         4,
		Records:         3000,
		RegionsPerTable: 4,
		LoaderThreads:   16,
		ThreadSweep:     []int{1, 4, 16, 48},
		RunTime:         600 * time.Millisecond,
		NetRTT:          2 * time.Millisecond,
		NetJitter:       time.Millisecond,
		DiskRead:        8 * time.Millisecond,
		DiskWrite:       0, // appends are buffered; the sync pays
		DiskSync:        time.Millisecond,
		BlockCacheBytes: 1 << 20, // 1 MiB: base data (~4.5 MiB) spills, indexes fit
		MemtableBytes:   1 << 20,
	}
}

// Paper returns the full-scale profile mirroring the paper's in-house
// cluster shape: 8 region servers and a larger key space. Experiment
// campaigns at this profile take minutes.
func Paper() Profile {
	p := Small()
	p.Name = "paper"
	p.Servers = 8
	p.Records = 20000
	p.RegionsPerTable = 8
	p.ThreadSweep = []int{1, 4, 16, 64, 160}
	p.RunTime = 2 * time.Second
	p.BlockCacheBytes = 4 << 20
	return p
}

// Cloud returns the Fig. 10 profile: the RC2 virtual cluster — 5× servers
// and records, weaker per-node I/O (virtualization overhead plus contention,
// which the paper blames for its sub-linear scale-out).
func Cloud(base Profile) Profile {
	p := base
	p.Name = base.Name + "-cloud"
	p.Servers = base.Servers * 5
	p.Records = base.Records * 5
	p.RegionsPerTable = base.RegionsPerTable * 5
	p.DiskRead = base.DiskRead * 2
	p.DiskWrite = base.DiskWrite * 2
	p.DiskSync = base.DiskSync * 2
	p.NetJitter = base.NetJitter * 4
	return p
}

// Options converts the profile into DB options.
func (p Profile) Options() diffindex.Options {
	return diffindex.Options{
		Servers:          p.Servers,
		NetRTT:           p.NetRTT,
		NetJitter:        p.NetJitter,
		DiskReadLatency:  p.DiskRead,
		DiskWriteLatency: p.DiskWrite,
		DiskSyncLatency:  p.DiskSync,
		BlockCacheBytes:  p.BlockCacheBytes,
		MemtableBytes:    p.MemtableBytes,
		// Extra APS workers keep the background service ahead of the
		// client load at low transaction rates, as in the paper's Fig. 11
		// (staleness stays small until the system approaches saturation).
		APSWorkers: 4,
	}
}

// SchemeSet is the scheme ladder the paper compares; -1 is the no-index
// baseline ("null").
type SchemeSet struct {
	Label  string
	Scheme int // diffindex.Scheme, or -1 for no index
}

// UpdateSchemes is the Fig. 7/10 ladder: null, insert, full, async.
func UpdateSchemes() []SchemeSet {
	return []SchemeSet{
		{"null", -1},
		{"insert", int(diffindex.SyncInsert)},
		{"full", int(diffindex.SyncFull)},
		{"async", int(diffindex.AsyncSimple)},
	}
}

// ReadSchemes is the Fig. 8 ladder: full, insert, async.
func ReadSchemes() []SchemeSet {
	return []SchemeSet{
		{"full", int(diffindex.SyncFull)},
		{"insert", int(diffindex.SyncInsert)},
		{"async", int(diffindex.AsyncSimple)},
	}
}
