package main

import (
	"sort"
	"time"

	"diffindex"
	"diffindex/internal/workload"
)

// crashCheck is the durability check of the paper's section 5.3: more updates
// are acked, the server hosting part of them is crashed at once (under an
// async scheme their index work is still queued), and after recovery every
// one of those updates must be readable with its last acked value and be
// found through the index. It returns how long CrashServer took to bring the
// dead server's regions back on the survivors.
func (e *env) crashCheck() time.Duration {
	touched := make([]map[int64]bool, clients)
	root, done := e.phase("crash-updates")
	per := (e.cfg.sz.crashUpdates + clients - 1) / clients
	e.eachWorker(func(w *worker) {
		touched[w.id] = map[int64]bool{}
		e.drive(w, func() op {
			o := w.gen.nextOf(workload.OpUpdate)
			touched[w.id][o.item] = true
			return o
		}, func(n int, _ time.Time) bool { return n >= per }, root)
	})
	done()

	start := time.Now()
	err := e.db.CrashServer("rs1")
	recovery := time.Since(start)
	e.checksTried++
	if err != nil {
		e.failCheck("CrashServer: %v", err)
	}
	if !e.db.WaitForIndexes(convergeTimeout) {
		e.failCheck("indexes did not converge after the crash")
	}

	root, done = e.phase("crash-verify")
	defer done()
	e.eachWorker(func(w *worker) {
		w.async = false // converged: a miss is a lost update now, not a stale one
		var ops []op
		for item := range touched[w.id] {
			ops = append(ops, op{kind: workload.OpRowRead, item: item}, op{kind: workload.OpIndexRead, item: item})
		}
		sort.Slice(ops, func(i, j int) bool {
			return ops[i].item < ops[j].item || ops[i].item == ops[j].item && ops[i].kind < ops[j].kind
		})
		next := 0
		e.drive(w, func() op { next++; return ops[next-1] },
			func(n int, _ time.Time) bool { return n >= len(ops) }, root)
	})
	return recovery
}

// finalChecks runs the anti-entropy sweep over both indexes and reads the
// store's own health verdict.
func (e *env) finalChecks() {
	reports, err := e.workers[0].cl.VerifyIndexes(workload.TableName)
	e.checksTried++
	if err != nil {
		e.failCheck("VerifyIndexes: %v", err)
	}
	for _, r := range reports {
		e.checksTried++
		// Sync-insert leaves stale entries by design (reads repair them);
		// no scheme may miss an entry once converged.
		if r.Missing > 0 || r.Stale > 0 && r.Scheme != diffindex.SyncInsert {
			e.failCheck("index %s: %d missing, %d stale entries", r.Index, r.Missing, r.Stale)
		}
	}
	e.checksTried++
	if h := e.db.Health(); h.Status == diffindex.HealthUnhealthy {
		e.failCheck("health %s: %v", h.Status, h.Reasons)
	}
}

// layerCounts derives the per-layer counts of the main phase from counters
// the program already exports. ops is the number of main-phase ops.
func (e *env) layerCounts(d *delta, ops float64, lat [4][]int64, userBytes int64) map[string]float64 {
	const (
		ioOps = "diffindex_io_ops_total"
		stage = "diffindex_stage_latency_ns"
		opLat = "diffindex_op_latency_ns"
		item  = workload.TableName
	)
	scheme := e.cfg.spec.scheme
	async := scheme == diffindex.AsyncSimple
	puts, _ := d.histDelta(opLat, "op", "put", "table", item)
	gets, _ := d.histDelta(opLat, "op", "index-get", "table", item)
	ranges, _ := d.histDelta(opLat, "op", "index-range", "table", item)
	indexReads := gets + ranges

	hits := d.count("diffindex_block_cache_hits")
	misses := d.count("diffindex_block_cache_misses")
	rpcs := d.count("diffindex_fanout_rpcs_total")
	put := lat[workload.OpUpdate]
	pl := map[string]float64{
		"simnet.calls_per_op":                      ratio(float64(d.to.netCalls-d.from.netCalls), ops),
		"cluster.fanout_rpcs_per_wave":             ratio(rpcs, d.count("diffindex_fanout_waves_total")),
		"cluster.fanout_items_per_rpc":             ratio(d.count("diffindex_fanout_items_total"), rpcs),
		"wal.appends_per_op":                       ratio(d.count("diffindex_wal_appends_total"), ops),
		"wal.bytes_per_op":                         ratio(d.count("diffindex_wal_bytes_total"), ops),
		"sstable.cache_hit_ratio":                  ratio(hits, hits+misses),
		"vfs.reads_per_op":                         ratio(float64(d.to.fsReads-d.from.fsReads), ops),
		"vfs.read_bytes_per_op":                    ratio(float64(d.to.fsRdB-d.from.fsRdB), ops),
		"vfs.write_bytes_per_op":                   ratio(float64(d.to.fsWrB-d.from.fsWrB), ops),
		"vfs.syncs_per_op":                         ratio(float64(d.to.fsSyncs-d.from.fsSyncs), ops),
		"lsm.compaction_rounds":                    d.count("diffindex_compaction_rounds_total"),
		"lsm.compaction_write_bytes_per_user_byte": ratio(d.count("diffindex_compaction_bytes_total", "dir", "write"), float64(userBytes)),
		"lsm.put_stall_p999_us":                    quantile(put, tailPercentile(len(put), 0.999)) / 1e3,
		"core.index_cells_per_put": ratio(d.count(ioOps, "op", "index-put")+d.count(ioOps, "op", "index-del")+
			d.count(ioOps, "op", "async-index-put")+d.count(ioOps, "op", "async-index-del"), puts),
		"proc.allocs_per_op":      ratio(float64(d.to.mem.Mallocs-d.from.mem.Mallocs), ops),
		"proc.alloc_bytes_per_op": ratio(float64(d.to.mem.TotalAlloc-d.from.mem.TotalAlloc), ops),
	}
	pl["lsm.flushes"], _ = d.histDelta(stage, "stage", "flush")

	// The paper's Table 2: what each scheme pays per put and per index read.
	// Sync-insert reads the base table to double check hits, the other
	// schemes to find the old value of a put.
	baseReads := d.count(ioOps, "op", "base-read") + d.count(ioOps, "op", "async-base-read")
	if scheme == diffindex.SyncInsert {
		pl["core.base_reads_per_put"] = 0
		pl["core.checks_per_index_read"] = ratio(baseReads, indexReads)
		pl["core.repairs_per_index_read"] = ratio(d.count(ioOps, "op", "index-del"), indexReads)
	} else {
		pl["core.base_reads_per_put"] = ratio(baseReads, puts)
		pl["core.checks_per_index_read"] = 0
		pl["core.repairs_per_index_read"] = 0
	}
	pl["core.sync_rpcs_per_put"] = 0
	if !async {
		pl["core.sync_rpcs_per_put"] = ratio(d.count("diffindex_apply_rpcs_total"), puts)
	}

	// The AUQ and APS exist only under an async scheme. ResetStaleness ran
	// right before the main phase, so the program's own staleness percentiles
	// cover the main phase alone.
	for _, name := range []string{"core.aps_batch_mean", "core.auq_shed", "core.flush_drains",
		"core.staleness_mean_ms", "core.staleness_p50_ms", "core.staleness_p95_ms"} {
		pl[name] = 0
	}
	if async {
		pl["core.aps_batch_mean"] = d.histMean("diffindex_aps_batch_size")
		pl["core.auq_shed"] = d.count("diffindex_auq_shed_total")
		pl["core.flush_drains"] = d.count("diffindex_flush_drains_total")
		pl["core.staleness_mean_ms"] = d.histMean("diffindex_staleness_ns") / 1e6
		for _, h := range d.to.reg.Histograms {
			if h.Name == "diffindex_staleness_ns" {
				pl["core.staleness_p50_ms"], pl["core.staleness_p95_ms"] = float64(h.P50)/1e6, float64(h.P95)/1e6
			}
		}
	}

	// The stage budget: mean time per stage over the main phase, and the
	// share of client-visible op time that no stage of the op's own trace
	// accounts for. A stage a scheme never runs reads 0.
	ran := map[string]bool{
		"wal": true, "memtable": true, "store-get": true, "store-scan": true, "flush": true, "index-scan": true,
		"index-rpc": !async, "auq-enqueue": async, "aps-delivery": async, "flush-drain": async,
		"double-check": scheme == diffindex.SyncInsert, "repair": scheme == diffindex.SyncInsert,
		"multi-get": false, // only RowsByIndex records it, and no workload issues that
	}
	foreground := map[string]bool{"wal": true, "memtable": true, "index-rpc": true, "auq-enqueue": true,
		"index-scan": true, "double-check": true, "repair": true}
	var attributed float64
	for name, runs := range ran {
		pl["stage."+name+"_us"] = 0
		if !runs {
			continue
		}
		labels := []string{"stage", name}
		if name != "store-get" && name != "store-scan" && name != "flush" {
			labels = append(labels, "table", item) // the base table's own stages, not the index tables'
		}
		n, total := d.histDelta(stage, labels...)
		pl["stage."+name+"_us"] = ratio(total, n) / 1e3
		if foreground[name] {
			attributed += total
		}
	}
	var opTime float64
	for _, name := range []string{"put", "index-get", "index-range", "get-row"} {
		_, total := d.histDelta(opLat, "op", name, "table", item)
		opTime += total
	}
	pl["stage.unattributed_pct"] = 100 * (1 - ratio(attributed, opTime))
	return pl
}
