package main

import (
	"time"

	"diffindex"
	"diffindex/internal/workload"
)

// Fixed conditions of the record (README.md, "Fixed conditions"). Every
// diffindex.Options field not set in setup keeps its default, so the record
// shows what a user gets.
const (
	servers       = 4
	regions       = 8 // per table
	clients       = 2 // closed-loop client goroutines, one diffindex.Client each
	memtableBytes = 256 << 10
	spillCache    = 640 << 10 // per server: 2.5 MiB total, about 15 % of the base data
	fitCache      = 64 << 20  // per server: everything fits
	rangeSpan     = 20        // rows per RangeByIndex
	minSamples    = 10000     // a latency metric rests on at least this many calls at full size
	runSeconds    = 18        // -seconds of a driver run: run_seconds in BENCHMARK.json
	runStores     = 4         // freshly set-up stores an untraced run measures, each for its share of -seconds
)

// sizes are the op counts and probe lengths that do not depend on -seconds.
type sizes struct {
	records      int64
	preUpdates   int           // read-insert only: updates during set-up, leaving stale entries for its reads
	probeFor     time.Duration // per read kind the main phase does not issue
	probeUpdates int           // on a workload whose main phase does not update: enough for several flushes per region
	crashUpdates int           // updates acked right before CrashServer
	replayRows   int           // rows of the layer-replay data set
}

var (
	fullSizes  = sizes{records: 16000, preUpdates: 8000, probeFor: 400 * time.Millisecond, probeUpdates: 90000, crashUpdates: 2000, replayRows: 20000}
	smokeSizes = sizes{records: 2000, preUpdates: 500, probeFor: 10 * time.Millisecond, probeUpdates: 600, crashUpdates: 200, replayRows: 500}
)

// workloadSpec is one named workload: the scheme of both indexes, the block
// cache size and the op mix of the main phase.
type workloadSpec struct {
	name       string
	scheme     diffindex.Scheme
	cacheBytes int64
	preUpdates bool
	mix        map[workload.OpKind]float64
	why        string
}

var workloads = []workloadSpec{
	{
		name: "put-full", scheme: diffindex.SyncFull, cacheBytes: spillCache,
		mix: map[workload.OpKind]float64{workload.OpUpdate: 1},
		why: "sync-full title updates, base data 7x the cache: WAL, memtable, cold read of the old value, index put and delete over 2 RPCs, flush and compaction all block the put (Fig. 7)",
	},
	{
		name: "put-async", scheme: diffindex.AsyncSimple, cacheBytes: spillCache,
		mix: map[workload.OpKind]float64{workload.OpUpdate: 1},
		why: "the same updates on async-simple: the put is WAL, memtable and AUQ enqueue, the APS does the index work behind it and AUQ backpressure sets throughput; ends with a crash with tasks queued",
	},
	{
		name: "read-insert", scheme: diffindex.SyncInsert, cacheBytes: spillCache, preUpdates: true,
		mix: map[workload.OpKind]float64{workload.OpIndexRead: 0.6, workload.OpRangeRead: 0.2, workload.OpRowRead: 0.2},
		why: "sync-insert reads after updates left stale entries: index scan, double check of every hit against a base table that does not fit the cache, repair (Fig. 8/9, Algorithm 2); no writes but repairs",
	},
	{
		name: "mixed-insert", scheme: diffindex.SyncInsert, cacheBytes: fitCache,
		mix: map[workload.OpKind]float64{workload.OpUpdate: 0.5, workload.OpIndexRead: 0.3, workload.OpRangeRead: 0.1, workload.OpRowRead: 0.1},
		why: "updates beside reads on one sync-insert index with everything in cache: a cold-path gain predicts no change here, a read gain that costs writes shows",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef is one line of BENCHMARK.json. bound is the share of the parent's
// median by which an end-to-end metric may get worse; per-layer metrics have
// none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the store sees. README.md gives each definition
// and the measured spread its bound was fixed from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"index_get_p50_us", "us", "lower", 0.25},
	{"index_range_p50_us", "us", "lower", 0.25},
	{"row_get_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.15},
	{"space_amp", "ratio", "lower", 0.15},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"mem_sys_mb", "MB", "lower", 0.25},
}

// perLayer is one metric per line, layer = package name before the dot.
// README.md says how each is measured and which end-to-end metric it should
// move.
var perLayer = []metricDef{
	{name: "diffindex.put_p99_us", unit: "us", better: "lower"},
	{name: "diffindex.index_get_p99_us", unit: "us", better: "lower"},
	{name: "workload.gen_ns_per_op", unit: "ns", better: "lower"},
	{name: "workload.gen_share_pct", unit: "%", better: "lower"},
	{name: "kv.encode_ns_per_cell", unit: "ns", better: "lower"},
	{name: "simnet.call_ns", unit: "ns", better: "lower"},
	{name: "simnet.calls_per_op", unit: "count", better: "lower"},
	{name: "cluster.put_ns", unit: "ns", better: "lower"},
	{name: "cluster.get_row_ns", unit: "ns", better: "lower"},
	{name: "cluster.multiget_ns_per_key", unit: "ns", better: "lower"},
	{name: "cluster.multiapply_ns_per_cell", unit: "ns", better: "lower"},
	{name: "cluster.put_self_ns", unit: "ns", better: "lower"},
	{name: "cluster.fanout_rpcs_per_wave", unit: "count", better: "lower"},
	{name: "cluster.fanout_items_per_rpc", unit: "count", better: "higher"},
	{name: "cluster.recovery_ms", unit: "ms", better: "lower"},
	{name: "wal.append_ns_per_rec", unit: "ns", better: "lower"},
	{name: "wal.replay_ns_per_rec", unit: "ns", better: "lower"},
	{name: "wal.appends_per_op", unit: "count", better: "lower"},
	{name: "wal.bytes_per_op", unit: "B", better: "lower"},
	{name: "memtable.put_ns", unit: "ns", better: "lower"},
	{name: "memtable.get_ns", unit: "ns", better: "lower"},
	{name: "sstable.build_ns_per_cell", unit: "ns", better: "lower"},
	{name: "sstable.get_hot_ns", unit: "ns", better: "lower"},
	{name: "sstable.get_cold_ns", unit: "ns", better: "lower"},
	{name: "sstable.get_absent_ns", unit: "ns", better: "lower"},
	{name: "sstable.iter_ns_per_cell", unit: "ns", better: "lower"},
	{name: "sstable.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "vfs.reads_per_op", unit: "count", better: "lower"},
	{name: "vfs.read_bytes_per_op", unit: "B", better: "lower"},
	{name: "vfs.write_bytes_per_op", unit: "B", better: "lower"},
	{name: "vfs.syncs_per_op", unit: "count", better: "lower"},
	{name: "lsm.apply_ns_per_cell", unit: "ns", better: "lower"},
	{name: "lsm.get_mem_ns", unit: "ns", better: "lower"},
	{name: "lsm.get_table_ns", unit: "ns", better: "lower"},
	{name: "lsm.scan_ns_per_row", unit: "ns", better: "lower"},
	{name: "lsm.flush_ms_per_mib", unit: "ms", better: "lower"},
	{name: "lsm.compact_ms_per_mib", unit: "ms", better: "lower"},
	{name: "lsm.flushes", unit: "count", better: "lower"},
	{name: "lsm.compaction_rounds", unit: "count", better: "lower"},
	{name: "lsm.compaction_write_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "lsm.tables_at_end", unit: "count", better: "lower"},
	{name: "lsm.put_stall_p999_us", unit: "us", better: "lower"},
	{name: "core.put_overhead_ns", unit: "ns", better: "lower"},
	{name: "core.sync_rpcs_per_put", unit: "count", better: "lower"},
	{name: "core.index_cells_per_put", unit: "count", better: "lower"},
	{name: "core.base_reads_per_put", unit: "count", better: "lower"},
	{name: "core.checks_per_index_read", unit: "count", better: "lower"},
	{name: "core.repairs_per_index_read", unit: "count", better: "lower"},
	{name: "core.stale_miss", unit: "count", better: "lower"},
	{name: "core.aps_batch_mean", unit: "count", better: "higher"},
	{name: "core.auq_depth_max", unit: "count", better: "lower"},
	{name: "core.auq_shed", unit: "count", better: "lower"},
	{name: "core.flush_drains", unit: "count", better: "lower"},
	{name: "core.drain_s", unit: "s", better: "lower"},
	{name: "core.staleness_mean_ms", unit: "ms", better: "lower"},
	{name: "core.staleness_p50_ms", unit: "ms", better: "lower"},
	{name: "core.staleness_p95_ms", unit: "ms", better: "lower"},
	{name: "metrics.optrace_overhead_pct", unit: "%", better: "lower"},
	{name: "stage.wal_us", unit: "us", better: "lower"},
	{name: "stage.memtable_us", unit: "us", better: "lower"},
	{name: "stage.index-rpc_us", unit: "us", better: "lower"},
	{name: "stage.auq-enqueue_us", unit: "us", better: "lower"},
	{name: "stage.aps-delivery_us", unit: "us", better: "lower"},
	{name: "stage.store-get_us", unit: "us", better: "lower"},
	{name: "stage.store-scan_us", unit: "us", better: "lower"},
	{name: "stage.index-scan_us", unit: "us", better: "lower"},
	{name: "stage.double-check_us", unit: "us", better: "lower"},
	{name: "stage.repair_us", unit: "us", better: "lower"},
	{name: "stage.multi-get_us", unit: "us", better: "lower"},
	{name: "stage.flush_us", unit: "us", better: "lower"},
	{name: "stage.flush-drain_us", unit: "us", better: "lower"},
	{name: "stage.unattributed_pct", unit: "%", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.gc_cpu_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.failed_share", unit: "ratio", better: "lower"},
}
