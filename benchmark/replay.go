package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/memtable"
	"diffindex/internal/simnet"
	"diffindex/internal/sstable"
	"diffindex/internal/vfs"
	"diffindex/internal/wal"
	"diffindex/internal/workload"
)

// The layer replay drives the seeded keys, values and batch shapes of the
// workloads straight into each package's exported API on a vfs.MemFS, so a
// layer's cost is known apart from the layers above it. A layer's self time
// is its replay time minus the replay time of the layers it calls.

// replayData is the seeded data set: rows of the item table as sorted cells,
// and a zipfian stream of title updates over them.
type replayData struct {
	rows    int
	keys    [][]byte  // row keys
	cells   []kv.Cell // every column of every row, sorted by store key
	updates []kv.Cell // title updates, one cell each, timestamps ascending
	picks   []int     // zipfian row choices for reads
}

func newReplayData(seed int64, rows int) *replayData {
	d := &replayData{rows: rows}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		key := workload.ItemKey(int64(i))
		d.keys = append(d.keys, key)
		for col, val := range workload.ItemRow(int64(i), rng) {
			d.cells = append(d.cells, kv.Cell{Key: kv.BaseKey(key, []byte(col)), Value: val, Ts: 1, Kind: kv.KindPut})
		}
	}
	sort.Slice(d.cells, func(i, j int) bool { return bytes.Compare(d.cells[i].Key, d.cells[j].Key) < 0 })
	zipf := workload.NewScrambledZipfian(int64(rows), seed+1)
	gen := make([]int64, rows)
	for u := 0; u < 4*rows; u++ {
		i := zipf.Next()
		gen[i]++
		d.updates = append(d.updates, kv.Cell{
			Key:   kv.BaseKey(d.keys[i], []byte(workload.TitleColumn)),
			Value: workload.UpdatedTitleValue(i, gen[i]), Ts: kv.Timestamp(2 + u), Kind: kv.KindPut,
		})
		d.picks = append(d.picks, int(zipf.Next()))
	}
	return d
}

func (d *replayData) titleKey(pick int) []byte {
	return kv.BaseKey(d.keys[d.picks[pick%len(d.picks)]], []byte(workload.TitleColumn))
}

type replayer struct {
	tr  *tracer
	d   *replayData
	out map[string]float64
}

// timeCalls makes n calls of fn, split over the given number of goroutines,
// with one span per batch of calls (a span per call would cost more than a
// sub-microsecond call itself). It stores and returns the median over the
// spans of the time one call took, divided by unitsPerCall: a median, like
// the end-to-end p50s it is compared with, so a flush that stalls one call
// does not count as the layer's cost.
func (r *replayer) timeCalls(metric string, goroutines, n, batch int, unitsPerCall float64, fn func(g, i int)) float64 {
	root, done := r.tr.root("replay:" + metric)
	name := r.tr.nameID(metric)
	var wg sync.WaitGroup
	perCall := make([][]float64, goroutines)
	per := (n + goroutines - 1) / goroutines
	for g := 0; g < goroutines; g++ {
		buf := r.tr.newBuf(per/batch + 1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo, hi := g*per, min((g+1)*per, n)
			for i := lo; i < hi; i += batch {
				start := time.Now()
				end := min(i+batch, hi)
				for j := i; j < end; j++ {
					fn(g, j)
				}
				stop := time.Now()
				buf.add(name, root, end-i, start, stop)
				perCall[g] = append(perCall[g], float64(stop.Sub(start))/float64(end-i))
			}
		}(g)
	}
	wg.Wait()
	done()
	var all []float64
	for _, p := range perCall {
		all = append(all, p...)
	}
	v := medianFloat(all) / unitsPerCall
	r.out[metric] = v
	return v
}

// sinks keeps the results of otherwise dead calls alive, one padded slot per
// goroutine so that keeping them costs no shared cache line.
var sinks [clients]struct {
	n int
	_ [56]byte
}

// layerReplay measures every per-layer timing and returns them by name.
func layerReplay(cfg runConfig, tr *tracer) map[string]float64 {
	r := &replayer{tr: tr, d: newReplayData(cfg.seed, cfg.sz.replayRows), out: map[string]float64{}}
	r.kvAndNet()
	r.memtable()
	r.wal()
	r.sstable()
	r.lsm()
	r.cluster()
	return r.out
}

// must stops the benchmark: on a MemFS with generated inputs no layer call
// can fail unless the program is broken, and then no number is worth printing.
func must(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("layer replay: %s: %v", what, err))
	}
}

func (r *replayer) kvAndNet() {
	up := r.d.updates
	r.timeCalls("kv.encode_ns_per_cell", 1, len(up), 256, 1, func(g, i int) {
		c := up[i]
		ikey := kv.InternalKey(c.Key, c.Ts, c.Kind)
		row, _, _ := kv.SplitBaseKey(c.Key)
		sinks[g].n += len(ikey) + len(kv.IndexKey(c.Value, row))
	})
	net := simnet.New(simnet.Config{})
	r.timeCalls("simnet.call_ns", clients, 10*len(up), 256, 1, func(_, _ int) {
		must(net.Call("client", "rs1", func() error { return nil }), "simnet.Call")
	})
}

func (r *replayer) memtable() {
	// One memtable's worth of updates, the size a region flushes at.
	n, probe := 0, memtable.New()
	for ; n < len(r.d.updates) && probe.ApproximateBytes() < memtableBytes; n++ {
		probe.Add(r.d.updates[n])
	}
	mt := memtable.New()
	r.timeCalls("memtable.put_ns", 1, n, 64, 1, func(_, i int) { mt.Add(r.d.updates[i]) })
	r.timeCalls("memtable.get_ns", clients, 4*n, 64, 1, func(g, i int) {
		c, ok := mt.Get(r.d.updates[i%n].Key, kv.MaxTimestamp)
		if !ok {
			must(fmt.Errorf("key %q absent", r.d.updates[i%n].Key), "memtable.Get")
		}
		sinks[g].n += len(c.Value)
	})
}

func (r *replayer) wal() {
	fs := vfs.NewMemFS()
	log, err := wal.Open(fs, "wal", nil)
	must(err, "wal.Open")
	up := r.d.updates
	n := 10 * r.d.rows // 200 000 records at full size
	// One record per batch: the shape of a title update on the put path.
	r.timeCalls("wal.append_ns_per_rec", 1, n, 64, 1, func(_, i int) {
		c := up[i%len(up)]
		must(log.AppendBatch([]wal.Record{{Key: c.Key, Value: c.Value, Ts: c.Ts, Kind: c.Kind}}), "AppendBatch")
	})
	must(log.Close(), "wal.Close")
	replayed := 0
	r.timeCalls("wal.replay_ns_per_rec", 1, 1, 1, float64(n), func(_, _ int) {
		log, err := wal.OpenWith(fs, "wal", wal.ReplayConfig{Replay: func(wal.Record) { replayed++ }})
		must(err, "wal.OpenWith")
		must(log.Close(), "wal.Close")
	})
	if replayed != n {
		must(fmt.Errorf("replayed %d of %d records", replayed, n), "wal replay")
	}
}

func (r *replayer) sstable() {
	fs := vfs.NewMemFS()
	cells := r.d.cells
	r.timeCalls("sstable.build_ns_per_cell", 1, 1, 1, float64(len(cells)), func(_, _ int) {
		w, err := sstable.NewWriter(fs, "t.sst")
		must(err, "sstable.NewWriter")
		for _, c := range cells {
			must(w.Add(kv.InternalKey(c.Key, c.Ts, c.Kind), c.Value), "Writer.Add")
		}
		must(w.Finish(), "Writer.Finish")
	})
	n := 5 * r.d.rows
	get := func(metric string, cache *sstable.BlockCache, key func(i int) []byte, want bool) {
		rd, err := sstable.Open(fs, "t.sst", cache)
		must(err, "sstable.Open")
		defer rd.Close()
		if cache != nil { // warm every block
			it := rd.Iterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
		}
		r.timeCalls(metric, clients, n, 64, 1, func(g, i int) {
			c, ok, err := rd.Get(key(i), kv.MaxTimestamp)
			must(err, "Reader.Get")
			if ok != want {
				must(fmt.Errorf("key %q: found=%v", key(i), ok), "Reader.Get")
			}
			sinks[g].n += len(c.Value)
		})
	}
	get("sstable.get_hot_ns", sstable.NewBlockCache(fitCache), r.d.titleKey, true)
	get("sstable.get_cold_ns", nil, r.d.titleKey, true)
	// A key between two rows: in the table's range, so only the bloom filter
	// can turn it away without a block read.
	absent := make([][]byte, r.d.rows)
	for i := range absent {
		absent[i] = kv.BaseKey(append(append([]byte(nil), r.d.keys[i]...), 'x'), []byte(workload.TitleColumn))
	}
	get("sstable.get_absent_ns", nil, func(i int) []byte { return absent[r.d.picks[i%len(r.d.picks)]] }, false)

	rd, err := sstable.Open(fs, "t.sst", nil)
	must(err, "sstable.Open")
	defer rd.Close()
	r.timeCalls("sstable.iter_ns_per_cell", 1, 1, 1, float64(len(cells)), func(_, _ int) {
		it, seen := rd.Iterator(), 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			seen++
		}
		must(it.Err(), "Iterator")
		if seen != len(cells) {
			must(fmt.Errorf("%d of %d cells", seen, len(cells)), "Iterator")
		}
	})
}

func (r *replayer) lsm() {
	st, err := lsm.Open(lsm.Options{
		FS: vfs.NewMemFS(), Dir: "region", MemtableBytes: memtableBytes,
		BlockCache:       sstable.NewBlockCache(spillCache),
		DisableAutoFlush: true, DisableAutoCompact: true, // the replay decides when, so it can time them
	})
	must(err, "lsm.Open")
	defer st.Close()
	// Four tables of a quarter of the rows each, like a region after load.
	cells := r.d.cells
	quarter := (len(cells) + 3) / 4
	for lo := 0; lo < len(cells); lo += quarter {
		for i := lo; i < min(lo+quarter, len(cells)); i += 10 {
			must(st.ApplyBatch(cells[i:min(i+10, lo+quarter, len(cells))]), "ApplyBatch")
		}
		must(st.Flush(), "Flush")
	}
	n := 2 * r.d.rows
	r.timeCalls("lsm.get_table_ns", clients, n, 16, 1, func(g, i int) {
		c, ok, err := st.Get(r.d.titleKey(i), kv.MaxTimestamp)
		must(err, "Store.Get")
		if !ok {
			must(fmt.Errorf("key %q absent", r.d.titleKey(i)), "Store.Get")
		}
		sinks[g].n += len(c.Value)
	})
	r.timeCalls("lsm.scan_ns_per_row", clients, n/rangeSpan, 1, rangeSpan, func(g, i int) {
		res, err := st.Scan(r.d.titleKey(i), nil, kv.MaxTimestamp, rangeSpan)
		must(err, "Store.Scan")
		sinks[g].n += len(res)
	})

	up := r.d.updates[:min(len(r.d.updates), r.d.rows)]
	r.timeCalls("lsm.apply_ns_per_cell", clients, len(up), 16, 1, func(_, i int) {
		must(st.ApplyBatch(up[i:i+1]), "ApplyBatch")
	})
	r.timeCalls("lsm.get_mem_ns", clients, n, 16, 1, func(g, i int) {
		c, ok, err := st.Get(up[i%len(up)].Key, kv.MaxTimestamp)
		must(err, "Store.Get")
		if !ok {
			must(fmt.Errorf("key %q absent", up[i%len(up)].Key), "Store.Get")
		}
		sinks[g].n += len(c.Value)
	})
	mib := float64(st.MemtableBytes()) / (1 << 20)
	r.timeCalls("lsm.flush_ms_per_mib", 1, 1, 1, mib*1e6, func(_, _ int) { must(st.Flush(), "Flush") })
	readBefore := st.Stats().CompactionBytesRead
	took := r.timeCalls("lsm.compact_ms_per_mib", 1, 1, 1, 1, func(_, _ int) {
		ran, err := st.CompactOnce()
		must(err, "CompactOnce")
		if !ran {
			must(fmt.Errorf("nothing to compact"), "CompactOnce")
		}
	})
	mib = float64(st.Stats().CompactionBytesRead-readBefore) / (1 << 20)
	r.out["lsm.compact_ms_per_mib"] = took / 1e6 / mib
}

// replayCluster is a cluster with an index-less item table loaded with the
// replay rows, and one client per goroutine.
func (r *replayer) replayCluster(disableTracing bool) (*cluster.Cluster, []*cluster.Client) {
	c := cluster.New(cluster.Config{Servers: servers, MemtableBytes: memtableBytes, BlockCacheBytes: fitCache, DisableTracing: disableTracing})
	must(c.Master.CreateTable(workload.TableName, workload.TableSplits(int64(r.d.rows), regions)), "CreateTable")
	var cls []*cluster.Client
	for g := 0; g < clients; g++ {
		cls = append(cls, cluster.NewClient(c, fmt.Sprintf("replay-%d", g)))
	}
	rng := rand.New(rand.NewSource(1))
	for i, key := range r.d.keys {
		_, err := cls[0].Put(workload.TableName, key, workload.ItemRow(int64(i), rng))
		must(err, "cluster load")
	}
	return c, cls
}

func (r *replayer) cluster() {
	c, cls := r.replayCluster(false)
	defer c.Close()
	plain, plainCls := r.replayCluster(true)
	defer plain.Close()

	up := r.d.updates
	put := func(cls []*cluster.Client) func(g, i int) {
		return func(g, i int) {
			u := up[i%len(up)]
			row, _, _ := kv.SplitBaseKey(u.Key)
			_, err := cls[g].Put(workload.TableName, row, map[string][]byte{workload.TitleColumn: u.Value})
			must(err, "cluster Put")
		}
	}
	// Tracing on and off alternate in rounds, so drift hits both alike.
	const rounds = 4
	n := r.d.rows / 2
	var traced, untraced float64
	for round := 0; round < rounds; round++ {
		traced += r.timeCalls("cluster.put_ns", clients, n, 1, 1, put(cls))
		untraced += r.timeCalls("cluster.put_untraced_ns", clients, n, 1, 1, put(plainCls))
	}
	r.out["cluster.put_ns"] = traced / rounds
	delete(r.out, "cluster.put_untraced_ns")
	r.out["metrics.optrace_overhead_pct"] = 100 * (traced/untraced - 1)

	r.timeCalls("cluster.get_row_ns", clients, 2*n, 1, 1, func(g, i int) {
		cols, err := cls[g].GetRow(workload.TableName, r.d.keys[r.d.picks[i%len(r.d.picks)]])
		must(err, "cluster GetRow")
		sinks[g].n += len(cols)
	})
	const batchKeys = 16
	r.timeCalls("cluster.multiget_ns_per_key", clients, n/4, 1, batchKeys, func(g, i int) {
		specs := make([]cluster.GetSpec, batchKeys)
		for k := range specs {
			row := r.d.keys[r.d.picks[(i*batchKeys+k)%len(r.d.picks)]]
			specs[k] = cluster.GetSpec{Route: row, Key: kv.BaseKey(row, []byte(workload.TitleColumn))}
		}
		res, err := cls[g].MultiGet(workload.TableName, specs, kv.MaxTimestamp)
		must(err, "cluster MultiGet")
		sinks[g].n += len(res)
	})
	must(c.Master.CreateRawTable("idx", workload.TitleIndexSplits(int64(r.d.rows), regions)), "CreateRawTable")
	r.timeCalls("cluster.multiapply_ns_per_cell", clients, n/4, 1, batchKeys, func(g, i int) {
		cells := make([]kv.Cell, batchKeys)
		for k := range cells {
			u := up[(i*batchKeys+k)%len(up)]
			row, _, _ := kv.SplitBaseKey(u.Key)
			cells[k] = kv.Cell{Key: kv.IndexKey(u.Value, row), Ts: u.Ts, Kind: kv.KindPut}
		}
		must(cls[g].MultiApply("idx", cells), "cluster MultiApply")
	})
}
