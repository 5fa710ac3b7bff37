// Package lsm implements the log-structured merge store that underlies every
// table region: the paper's abstract LSM model (§2.1) as realized by HBase
// (§2.2). A store is one memtable plus a set of immutable SSTables; writes
// append to the WAL and memtable, flushes turn memtables into SSTables, and
// compactions merge SSTables back into one. Reads merge all components under
// MVCC timestamp visibility.
//
// Two LSM-specific properties drive the Diff-Index design and are faithfully
// reproduced here: writes never update in place (puts and deletes both
// append versions), and reads are much slower than writes (reads may touch
// every component and pay simulated disk latency through the VFS).
//
// The store exposes the two coprocessor-style hook points Diff-Index needs:
// a pre-flush hook (pause-and-drain the AUQ, §5.3) and a WAL-replay callback
// (re-enqueue recovered puts into the AUQ, §5.3).
package lsm

import (
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/metrics"
	"diffindex/internal/sstable"
	"diffindex/internal/vfs"
)

// Options configures a Store.
type Options struct {
	// FS is the file system holding WAL segments and SSTables. Required.
	FS vfs.FS
	// Dir is the store's directory prefix inside FS. Required.
	Dir string
	// MemtableBytes is the approximate memtable size that triggers a flush.
	// Defaults to 4 MiB.
	MemtableBytes int64
	// CompactionThreshold is the SSTable count at which the tiered picker
	// starts forcing merges even when no size tier is full. Defaults to 4.
	CompactionThreshold int
	// CompactionFanIn bounds how many SSTables one compaction round may
	// merge: each round picks at most this many similar-sized tables, so a
	// round's I/O is bounded no matter how many tables accumulate.
	// Defaults to 4.
	CompactionFanIn int
	// RetainTombstones keeps delete markers through every compaction,
	// including bottom-tier rounds (the data they mask is still GC'd).
	// Global-index stores set this: asynchronous index maintenance is
	// at-least-once, so a delayed or crash-redelivered insert of a
	// superseded entry can arrive long after its delete was applied — and
	// stays invisible only as long as the delete marker survives. Dropping
	// the marker would resurrect the stale entry.
	RetainTombstones bool
	// BlockCache, when non-nil, caches SSTable data blocks across the store
	// (typically shared by every store on a region server).
	BlockCache *sstable.BlockCache
	// OnReplay, when non-nil, is invoked for every cell recovered from the
	// WAL during Open, in log order. Diff-Index uses it to re-enqueue index
	// work (§5.3: "each base put replayed is also put into AUQ again").
	OnReplay func(kv.Cell)
	// Metrics is the registry the store counts into: stage latencies (wal,
	// memtable, store-get, store-scan, flush), WAL appends, flush,
	// compaction and scrub counters, all labeled with MetricsTable. A nil
	// value gets a private registry, so the store always counts.
	Metrics *metrics.Registry
	// MetricsTable is the value of the `table` label on this store's
	// metrics (typically the owning region's table name).
	MetricsTable string
	// DisableAutoFlush turns off size-triggered flushes (tests flush
	// explicitly for determinism).
	DisableAutoFlush bool
	// DisableAutoCompact turns off count-triggered compactions.
	DisableAutoCompact bool
	// DisableScrub turns off the background integrity scrubber.
	DisableScrub bool
	// ScrubInterval is the pause between scrub cycles (a cycle verifies every
	// block of every live SSTable). Defaults to 5s; short-lived stores never
	// start a cycle.
	ScrubInterval time.Duration
	// ScrubBlockPace is the pause between individual block verifications —
	// the knob that keeps the scrubber low-priority: with the 4 KiB target
	// block size, the default 1ms pace caps scrub I/O at ~4 MiB/s per store.
	// A negative value disables pacing (full-speed scrub, for tests).
	ScrubBlockPace time.Duration
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.CompactionThreshold <= 0 {
		o.CompactionThreshold = 4
	}
	if o.CompactionFanIn <= 0 {
		o.CompactionFanIn = 4
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.ScrubInterval <= 0 {
		o.ScrubInterval = 5 * time.Second
	}
	if o.ScrubBlockPace < 0 {
		o.ScrubBlockPace = 0
	} else if o.ScrubBlockPace == 0 {
		o.ScrubBlockPace = time.Millisecond
	}
	return o
}

// Stats is the store's flush and compaction counters, read from its
// registry instruments. Stores that share a registry and a MetricsTable (the
// regions of one table in a cluster) share those instruments, so each
// reports its table's totals.
type Stats struct {
	Compactions int64 // compaction rounds completed

	// FlushBytes is the total SSTable bytes written by flushes; together
	// with CompactionBytesWritten it yields the store's write
	// amplification: (FlushBytes + CompactionBytesWritten) / FlushBytes.
	FlushBytes             int64
	CompactionBytesRead    int64
	CompactionBytesWritten int64
	// CompactionCellsDropped counts cells garbage-collected by compaction
	// (versions below each key's newest at or below the GC horizon, and
	// retired tombstones); TombstonesDropped counts the delete markers
	// retired at the bottom tier.
	CompactionCellsDropped int64
	TombstonesDropped      int64
	// CompactionErrors counts failed background rounds;
	// LastCompactionError holds the most recent failure's message ("" when
	// none) so operators can see *why* compactions are failing, not just
	// that they are.
	CompactionErrors    int64
	LastCompactionError string
}
