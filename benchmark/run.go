package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffindex"
	"diffindex/internal/workload"
)

const (
	convergeTimeout = 2 * time.Minute
	traceSlice      = 50 * time.Millisecond // the traced run records spans in every other slice
)

// runConfig is one run of one workload: what the driver's command line says.
type runConfig struct {
	spec    workloadSpec
	sz      sizes
	seed    int64
	seconds float64
	trace   bool
	rounds  int    // stores the untraced run measures one after the other
	outDir  string // where the traced run writes its spans
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output, in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string // reasons for failed checks, for the human-readable part
}

// env is one loaded store with its model and clients.
type env struct {
	cfg     runConfig
	db      *diffindex.DB
	m       *model
	workers []*worker

	tr         *tracer
	sliceStart time.Time // non-zero while spans alternate on and off
	sliceOps   [2]atomic.Int64
	sliceTime  [2]atomic.Int64
	callNames  [4]int32

	checksTried  int64
	checksFailed int64
	notes        []string
}

// setup creates the item table with both indexes, loads it, applies the
// workload's pre-updates and quiesces the store. Its duration is setup_s.
func setup(cfg runConfig) (*env, time.Duration, error) {
	start := time.Now()
	// Every other diffindex.Options field keeps its default.
	db := diffindex.Open(diffindex.Options{Servers: servers, MemtableBytes: memtableBytes, BlockCacheBytes: cfg.spec.cacheBytes})
	e := &env{cfg: cfg, db: db, m: newModel(cfg.sz.records)}
	scheme := int(cfg.spec.scheme)
	if err := workload.Setup(e.db, cfg.sz.records, regions, scheme, scheme, clients); err != nil {
		e.db.Close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	for c := 0; c < clients; c++ {
		e.workers = append(e.workers, &worker{
			id: c, cl: e.db.NewClient(fmt.Sprintf("bench-%d", c)),
			gen: newGenerator(cfg.seed, c, cfg.sz.records, cfg.spec.mix),
			m:   e.m, async: cfg.spec.scheme == diffindex.AsyncSimple,
		})
	}
	if cfg.spec.preUpdates {
		e.runFixed(workload.OpUpdate, cfg.sz.preUpdates)
	}
	if err := e.quiesce(); err != nil {
		e.db.Close()
		return nil, 0, err
	}
	e.takeLatencies()
	return e, time.Since(start), nil
}

// quiesce flushes every memtable and waits for index and compaction work.
func (e *env) quiesce() error {
	if err := e.db.FlushAll(); err != nil {
		return fmt.Errorf("FlushAll: %w", err)
	}
	if !e.db.WaitForIndexes(convergeTimeout) {
		return fmt.Errorf("indexes did not converge within %v", convergeTimeout)
	}
	c, _ := e.db.Internal()
	c.WaitCompactions()
	return nil
}

// drive is one worker's closed loop: the next op is issued as soon as the
// previous one returned. Time between calls is the benchmark's own.
func (e *env) drive(w *worker, pick func() op, stop func(done int, now time.Time) bool, root int32) {
	prev := time.Now()
	for done := 1; ; done++ {
		o := pick()
		start, end := w.do(o)
		w.callTime += end.Sub(start)
		if w.spans != nil {
			w.gaps = append(w.gaps, int64(start.Sub(prev)))
			on := 1
			if !e.sliceStart.IsZero() {
				on = 1 - int(end.Sub(e.sliceStart)/traceSlice)%2
				e.sliceOps[on].Add(1)
				e.sliceTime[on].Add(int64(end.Sub(prev)))
			}
			if on == 1 {
				w.spans.add(e.callNames[o.kind], root, 1, start, end)
			}
		}
		prev = end
		if stop(done, end) {
			return
		}
	}
}

func (e *env) eachWorker(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// phase opens a root span in the traced run.
func (e *env) phase(name string) (root int32, done func()) {
	if e.tr == nil {
		return -1, func() {}
	}
	return e.tr.root(name)
}

// runFixed issues n ops of one kind, split over the clients, then waits for
// asynchronous index work so later reads have one right answer.
func (e *env) runFixed(kind workload.OpKind, n int) {
	root, done := e.phase("fixed:" + kind.String())
	defer done()
	per := (n + clients - 1) / clients
	e.eachWorker(func(w *worker) {
		e.drive(w, func() op { return w.gen.nextOf(kind) },
			func(n int, _ time.Time) bool { return n >= per }, root)
	})
	if !e.db.WaitForIndexes(convergeTimeout) {
		e.failCheck("indexes did not converge after %s phase", kind)
	}
}

// runFor issues ops of one kind for d. Reads only, so nothing is left to
// wait for.
func (e *env) runFor(kind workload.OpKind, d time.Duration) {
	root, done := e.phase("probe:" + kind.String())
	defer done()
	deadline := time.Now().Add(d)
	e.eachWorker(func(w *worker) {
		e.drive(w, func() op { return w.gen.nextOf(kind) },
			func(_ int, now time.Time) bool { return !now.Before(deadline) }, root)
	})
}

func (e *env) failCheck(format string, args ...any) {
	e.checksFailed++
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// takeLatencies moves the recorded latencies out of the workers, by op kind.
func (e *env) takeLatencies() (lat [4][]int64) {
	for k := range lat {
		var parts [][]int64
		for _, w := range e.workers {
			parts = append(parts, w.lat[k])
			w.lat[k] = nil
		}
		lat[k] = sortedCopy(parts...)
	}
	return lat
}

// totals adds up what the workers counted so far.
type totals struct {
	attempted, failed, staleMiss, userBytes int64
	callTime                                time.Duration
}

func (e *env) totals() (t totals) {
	for _, w := range e.workers {
		t.attempted += w.attempted
		t.failed += w.failed
		t.staleMiss += w.staleMiss
		t.userBytes += w.userBytes
		t.callTime += w.callTime
	}
	return t
}

// fileBytes is the size of every file on the simulated disk, and how many of
// them are SSTables. A file removed while the list is walked counts as gone.
func (e *env) fileBytes() (total int64, tables int, err error) {
	c, _ := e.db.Internal()
	names, err := c.FS.List("")
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		f, err := c.FS.Open(name)
		if err != nil {
			continue
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return 0, 0, err
		}
		total += size
		if strings.HasSuffix(name, ".sst") {
			tables++
		}
	}
	return total, tables, nil
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// run executes one run of one workload and returns the driver's result line.
// The untraced run measures cfg.rounds freshly set-up stores one after the
// other, each for its share of -seconds, and reports every metric's median
// over them: the shape the LSM trees happen to take differs from store to
// store and moves every latency with it. The traced run measures one store.
func run(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(clients)
	res := &result{Metrics: map[string]metricValue{}}
	defs, rounds := endToEnd, cfg.rounds
	if cfg.trace {
		defs, rounds = perLayer, 1
	}
	values := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		m, err := measure(cfg, r, rounds)
		if err != nil {
			return nil, err
		}
		res.Attempted += m.attempted
		res.Failed += m.failed
		res.notes = append(res.notes, m.notes...)
		for name, v := range m.values {
			values[name] = append(values[name], v)
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{medianFloat(v), d.unit}
	}
	if !cfg.trace {
		// Sys never shrinks: the last round's reading is the high-water mark
		// of the whole run, steadier than any one store's peak.
		res.Metrics["mem_sys_mb"] = metricValue{values["mem_sys_mb"][rounds-1], "MB"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measurement is what one store gave: the pass's metrics by name.
type measurement struct {
	values    map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

// measure sets up one store and takes it through probe, main phase, quiesce
// and checks (and, traced, the layer replay).
func measure(cfg runConfig, round, rounds int) (*measurement, error) {
	cfg.seed = cfg.seed*int64(rounds) + int64(round)
	// The previous store's garbage goes first, so that it neither adds to
	// this store's heap peak (mem_sys_mb) nor is collected on its set-up time.
	runtime.GC()
	e, setupTime, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer e.db.Close()
	if cfg.trace {
		e.tr = newTracer()
		for k := workload.OpKind(0); k < 4; k++ {
			e.callNames[k] = e.tr.nameID("client." + k.String())
		}
		for _, w := range e.workers {
			w.spans = e.tr.newBuf(int((cfg.seconds+3*cfg.sz.probeFor.Seconds())*20000) + cfg.sz.probeUpdates/2)
		}
	}

	// Probe phase: every op kind the main phase does not issue, so that each
	// metric exists on each workload. Reads are probed here, on the freshly
	// loaded store (the most repeatable state there is); updates only after
	// the main phase, so they never disturb the store it measures.
	for _, k := range []workload.OpKind{workload.OpIndexRead, workload.OpRangeRead, workload.OpRowRead} {
		if cfg.spec.mix[k] == 0 {
			e.runFor(k, cfg.sz.probeFor)
		}
	}
	probeLat := e.takeLatencies()
	earlier := e.totals()
	for _, w := range e.workers {
		w.callTime, w.gaps = 0, w.gaps[:0]
	}

	// Main phase: the workload's mix for this round's share of -seconds (half
	// of them in the traced run, the layer replay takes the other half), then
	// the wait for index work pushed into the background.
	mainFor := time.Duration(cfg.seconds * float64(time.Second) / float64(rounds))
	if cfg.trace {
		mainFor /= 2
	}
	e.db.ResetStaleness()
	watching := e.startWatch()
	before := readCounters(e.db)
	gcBefore := gcCPUSeconds()
	root, mainDone := e.phase("main")
	mainStart := time.Now()
	if cfg.trace {
		e.sliceStart = mainStart
	}
	deadline := mainStart.Add(mainFor)
	e.eachWorker(func(w *worker) {
		e.drive(w, w.gen.next, func(_ int, now time.Time) bool { return !now.Before(deadline) }, root)
	})
	lastAck := time.Now()
	if !e.db.WaitForIndexes(convergeTimeout) {
		e.failCheck("indexes did not converge after the main phase")
	}
	mainEnd := time.Now()
	mainDone()
	e.sliceStart = time.Time{}
	after := readCounters(e.db)
	gcAfter := gcCPUSeconds()
	watching.stop()

	lat := e.takeLatencies()
	mainLat := sortedCopy(lat[:]...) // every call of the main phase, whatever its kind
	for k := range lat {
		if cfg.spec.mix[workload.OpKind(k)] == 0 {
			lat[k] = probeLat[k]
		}
	}
	mainEndTotals := e.totals()
	mainOps := float64(mainEndTotals.attempted - earlier.attempted)
	mainBytes := mainEndTotals.userBytes - earlier.userBytes

	// Amplification is read once the store has flushed and compacted what
	// the phase wrote, so a flush just outside the window cannot move it. It
	// belongs to the phase that wrote: the main phase, or the probed updates
	// on a workload that only reads.
	if err := e.quiesce(); err != nil {
		return nil, err
	}
	settled := readCounters(e.db)
	wroteBytes, userBytes := settled.fsWrB-before.fsWrB, mainBytes
	if cfg.spec.mix[workload.OpUpdate] == 0 {
		e.runFixed(workload.OpUpdate, cfg.sz.probeUpdates)
		lat[workload.OpUpdate] = e.takeLatencies()[workload.OpUpdate]
		if err := e.quiesce(); err != nil {
			return nil, err
		}
		wroteBytes = readCounters(e.db).fsWrB - settled.fsWrB
		userBytes = e.totals().userBytes - mainEndTotals.userBytes
	}
	_, tables, err := e.fileBytes()
	if err != nil {
		return nil, err
	}

	recovery := e.crashCheck()
	e.finalChecks()
	final := readCounters(e.db)

	all := e.totals()
	m := &measurement{attempted: all.attempted + e.checksTried, failed: all.failed + e.checksFailed}
	put, get := lat[workload.OpUpdate], lat[workload.OpIndexRead]
	if !cfg.trace {
		m.values = map[string]float64{
			"setup_s":            setupTime.Seconds(),
			"throughput_ops_s":   (mainOps - float64(mainEndTotals.failed-earlier.failed)) / mainEnd.Sub(mainStart).Seconds(),
			"put_p50_us":         quantile(put, 0.5) / 1e3,
			"index_get_p50_us":   quantile(get, 0.5) / 1e3,
			"index_range_p50_us": quantile(lat[workload.OpRangeRead], 0.5) / 1e3,
			"row_get_p50_us":     quantile(lat[workload.OpRowRead], 0.5) / 1e3,
			"op_p99_us":          quantile(mainLat, tailPercentile(len(mainLat), 0.99)) / 1e3,
			"write_amp":          ratio(float64(wroteBytes), float64(userBytes)),
			"space_amp":          ratio(medianFloat(watching.disk), float64(e.m.liveBytes())),
			"cpu_ms_per_kop":     ratio(float64(after.cpu-before.cpu)/1e6, mainOps/1e3),
			"mem_sys_mb":         float64(after.mem.Sys) / (1 << 20),
		}
	} else {
		d := &delta{from: before, to: after, present: final}
		pl := e.layerCounts(d, mainOps, lat, mainBytes)
		if err := d.err(); err != nil {
			return nil, err
		}
		for k, v := range layerReplay(cfg, e.tr) {
			pl[k] = v
		}
		// The median gap between two calls: the mean would mostly count the
		// few times the scheduler took the client goroutine off the CPU there.
		var gaps [][]int64
		for _, w := range e.workers {
			gaps = append(gaps, w.gaps)
		}
		pl["workload.gen_ns_per_op"] = quantile(sortedCopy(gaps...), 0.5)
		pl["workload.gen_share_pct"] = 100 * ratio(pl["workload.gen_ns_per_op"], ratio(float64(mainEndTotals.callTime), mainOps))
		pl["cluster.recovery_ms"] = float64(recovery) / 1e6
		pl["cluster.put_self_ns"] = pl["cluster.put_ns"] - pl["lsm.apply_ns_per_cell"] - pl["simnet.call_ns"]
		pl["core.put_overhead_ns"] = quantile(put, 0.5) - pl["cluster.put_ns"]
		pl["diffindex.put_p99_us"] = quantile(put, tailPercentile(len(put), 0.99)) / 1e3
		pl["diffindex.index_get_p99_us"] = quantile(get, tailPercentile(len(get), 0.99)) / 1e3
		pl["core.drain_s"] = mainEnd.Sub(lastAck).Seconds()
		pl["core.auq_depth_max"] = float64(watching.maxDepth)
		pl["core.stale_miss"] = float64(all.staleMiss)
		pl["lsm.tables_at_end"] = float64(tables)
		pl["proc.gc_cpu_pct"] = 100 * ratio(gcAfter-gcBefore, (after.cpu-before.cpu).Seconds())
		on := ratio(float64(e.sliceOps[1].Load()), float64(e.sliceTime[1].Load()))
		off := ratio(float64(e.sliceOps[0].Load()), float64(e.sliceTime[0].Load()))
		pl["bench.trace_overhead_pct"] = 100 * (1 - ratio(on, off))
		pl["bench.failed_share"] = ratio(float64(m.failed), float64(m.attempted))
		m.values = pl
		path := fmt.Sprintf("%s/spans-%s.json", cfg.outDir, cfg.spec.name)
		if err := e.tr.write(path, cfg.spec.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		m.notes = append(m.notes, fmt.Sprintf("%d spans written to %s", e.tr.count(), path))
	}
	for _, w := range e.workers {
		if w.firstErr != nil {
			m.notes = append(m.notes, fmt.Sprintf("client %d: %v", w.id, w.firstErr))
		}
	}
	m.notes = append(m.notes, e.notes...)
	note := fmt.Sprintf("store %d samples:", round+1)
	for k, name := range []string{"put", "index-get", "index-range", "row-get"} {
		note += fmt.Sprintf(" %s %d", name, len(lat[k]))
		if len(lat[k]) < minSamples {
			note += fmt.Sprintf(" (under %d)", minSamples)
		}
	}
	m.notes = append(m.notes, note)
	return m, nil
}

// watch samples, while the main phase runs, what the program only exports as
// a current value: the AUQ depth every 10 ms and the bytes on the simulated
// disk every 250 ms.
type watch struct {
	quit     chan struct{}
	done     chan struct{}
	maxDepth int64
	disk     []float64
}

func (e *env) startWatch() *watch {
	w := &watch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-w.quit:
				return
			case <-tick.C:
				if d := e.db.PendingIndexUpdates(); d > w.maxDepth {
					w.maxDepth = d
				}
				if n%25 == 0 {
					if total, _, err := e.fileBytes(); err == nil {
						w.disk = append(w.disk, float64(total))
					}
				}
			}
		}
	}()
	return w
}

func (w *watch) stop() {
	close(w.quit)
	<-w.done
}
