package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diffindex"
	"diffindex/internal/metrics"
	"diffindex/internal/simnet"
	"diffindex/internal/vfs"
	"diffindex/internal/workload"
)

// ScenarioConfig sizes one chaos scenario. The zero value is not usable;
// fill Seed and Scheme and let withDefaults pick the rest.
type ScenarioConfig struct {
	// Seed is the single root seed: schedule, fault streams and workload
	// key choices all derive from it.
	Seed int64
	// Scheme is the index maintenance scheme under test.
	Scheme diffindex.Scheme
	// Servers is the region-server count (default 3).
	Servers int
	// Records is the item-table size (default 240).
	Records int64
	// Threads is the update-workload thread count (default 3).
	Threads int
	// Duration is the chaos window the workload runs for (default 1.2s).
	Duration time.Duration
	// Throttle is the per-thread pause between operations (default 200µs),
	// bounding AUQ backlog so post-run convergence stays fast.
	Throttle time.Duration
	// Plan overrides the generated schedule's event counts (nil = default:
	// one crash/restart, one partition/heal, two flushes, one split, one
	// disk-fault window, one net-fault window).
	Plan *PlanConfig
	// DisableDrainOnFlush turns off the §5.3 drain-AUQ-before-flush
	// protocol — the deliberately broken recovery the negative test uses to
	// prove the checkers catch real violations.
	DisableDrainOnFlush bool
	// CompactionThreshold overrides the per-store table count that arms
	// the incremental compaction engine (default 64, which effectively
	// disables compaction during the short chaos window). Set low (e.g. 2)
	// to exercise tiered compaction — including the tombstone-at-bottom-
	// tier rule and the PostCompact piggybacked cleanse — under faults.
	CompactionThreshold int
	// CompactionFanIn overrides the per-round merge width (0 = store
	// default).
	CompactionFanIn int
	// AUQMaxBacklog, when > 0, arms AUQ admission control: per-region async
	// backlog is capped and overflow arrivals degrade to synchronous
	// maintenance. The runner samples the worst backlog throughout and
	// reports a violation if the cap was breached (beyond the bounded
	// overshoot the shed-to-sync fallback permits).
	AUQMaxBacklog int
	// BalancerInterval, when > 0, runs the continuous load-aware balancer
	// during the scenario, so moves race the scheduled faults.
	BalancerInterval time.Duration
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Servers <= 0 {
		c.Servers = 3
	}
	if c.Records <= 0 {
		c.Records = 240
	}
	if c.Threads <= 0 {
		c.Threads = 3
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if c.Throttle <= 0 {
		c.Throttle = 200 * time.Microsecond
	}
	if c.CompactionThreshold <= 0 {
		c.CompactionThreshold = 64
	}
	return c
}

// Result is one scenario's outcome.
type Result struct {
	Seed   int64
	Scheme diffindex.Scheme
	// Schedule is the planned event trace — a pure function of Seed, so two
	// runs from the same seed print identical traces.
	Schedule Schedule
	// Ops counts acknowledged workload operations; OpErrors counts
	// operations that failed (injected faults, crashed servers mid-op).
	Ops, OpErrors int64
	// DiskFaults, NetDrops and NetDelays count injected faults by injector.
	DiskFaults, NetDrops, NetDelays int64
	// Checked counts facts the invariant checkers evaluated; Violations
	// holds every contract breach found (empty on a healthy run).
	Checked    int
	Violations []Violation
	// Converged reports whether async index work drained after the run.
	Converged bool
	Elapsed   time.Duration
	// Notes records non-fatal oddities (failed administrative events).
	Notes []string
	// Added and Removed list the servers the elastic events grew and
	// decommissioned; Merges counts region merges performed.
	Added, Removed []string
	Merges         int
	// MaxAUQBacklog is the worst single-region async backlog sampled during
	// the run; AUQShed counts arrivals admission control degraded to sync.
	MaxAUQBacklog int64
	AUQShed       int64
}

// OK reports whether the scenario upheld every invariant.
func (r *Result) OK() bool { return r.Converged && len(r.Violations) == 0 }

// Run executes one seeded chaos scenario: build a cluster with both
// injectors wired in, load the item table, start the update workload, fire
// the schedule, then quiesce and check every invariant. The returned error
// covers harness failures (setup, checker scans); contract breaches are
// reported as Result.Violations, not errors.
func Run(cfg ScenarioConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Seed: cfg.Seed, Scheme: cfg.Scheme}
	begin := time.Now()

	fault := vfs.NewFaultFS(vfs.NewMemFS())
	db := diffindex.Open(diffindex.Options{
		Servers: cfg.Servers,
		BaseFS:  fault,
		// The default CompactionThreshold of 64 effectively disables
		// compaction during the short chaos window; the compaction
		// scenarios lower it to put incremental merges (and their
		// version/tombstone GC) inside the fault schedule.
		CompactionThreshold:       cfg.CompactionThreshold,
		CompactionFanIn:           cfg.CompactionFanIn,
		AUQMaxBacklog:             cfg.AUQMaxBacklog,
		BalancerInterval:          cfg.BalancerInterval,
		UnsafeDisableDrainOnFlush: cfg.DisableDrainOnFlush,
		DisableTracing:            true,
	})
	defer db.Close()
	c, m := db.Internal()

	if err := db.CreateTable(workload.TableName, workload.TableSplits(cfg.Records, cfg.Servers)); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(workload.TableName, []string{workload.TitleColumn}, cfg.Scheme,
		workload.TitleIndexSplits(cfg.Records, cfg.Servers)); err != nil {
		return nil, err
	}
	if err := workload.Load(db, cfg.Records, cfg.Threads); err != nil {
		return nil, err
	}
	if !db.WaitForIndexes(20 * time.Second) {
		return nil, errors.New("chaos: indexes did not converge after load")
	}

	plan := PlanConfig{
		Duration: cfg.Duration, Servers: db.Servers(),
		Crashes: 1, Partitions: 1, Flushes: 2, Splits: 1,
		DiskFaultWindows: 1, NetFaultWindows: 1,
	}
	if cfg.Plan != nil {
		plan = *cfg.Plan
		plan.Duration = cfg.Duration
		plan.Servers = db.Servers()
	}
	res.Schedule = Plan(mix(cfg.Seed, "schedule"), plan)

	model := NewModel()
	var ops, opErrs, seq atomic.Int64
	stop := make(chan struct{})
	var workers sync.WaitGroup

	// Update workload: each thread picks items from its own seeded stream
	// and writes a title unique per (item, op), so every acked write moves
	// the index entry and the model knows exactly what must survive.
	putOnce := func(put func(table string, row []byte, cols diffindex.Cols) (int64, error), item int64) (int64, []byte, error) {
		title := workload.UpdatedTitleValue(item, seq.Add(1))
		ts, err := put(workload.TableName, workload.ItemKey(item), diffindex.Cols{workload.TitleColumn: title})
		if err != nil {
			opErrs.Add(1)
			return 0, nil, err
		}
		model.Record(item, ts, title)
		ops.Add(1)
		return ts, title, nil
	}
	for w := 0; w < cfg.Threads; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			cl := db.NewClient(fmt.Sprintf("chaos-w%d", w))
			gen := workload.NewUniform(cfg.Records, mix(cfg.Seed, fmt.Sprintf("worker-%d", w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				putOnce(cl.Put, gen.Next())
				time.Sleep(cfg.Throttle)
			}
		}(w)
	}

	// Session thread: for async-session, verify read-your-writes LIVE —
	// after each acked put the session's index lookup must return the row,
	// faults or not, unless the session itself has degraded.
	var vioMu sync.Mutex
	if cfg.Scheme == diffindex.AsyncSession {
		workers.Add(1)
		go func() {
			defer workers.Done()
			cl := db.NewClient("chaos-sess")
			sess := cl.NewSession()
			defer sess.End()
			gen := workload.NewUniform(cfg.Records, mix(cfg.Seed, "session"))
			for {
				select {
				case <-stop:
					return
				default:
				}
				item := gen.Next()
				_, title, err := putOnce(sess.Put, item)
				if err != nil {
					if errors.Is(err, diffindex.ErrSessionExpired) {
						sess = cl.NewSession()
					}
					time.Sleep(cfg.Throttle)
					continue
				}
				hits, err := sess.GetByIndex(workload.TableName, []string{workload.TitleColumn}, title)
				if err == nil && !sess.Degraded() {
					found := false
					for _, h := range hits {
						if string(h.Row) == string(workload.ItemKey(item)) {
							found = true
							break
						}
					}
					if !found {
						vioMu.Lock()
						res.Violations = append(res.Violations, Violation{"session-ryw",
							fmt.Sprintf("session lookup of %q missed the session's own write of item %d", title, item)})
						vioMu.Unlock()
					}
				}
				time.Sleep(cfg.Throttle)
			}
		}()
	}

	// Fire the schedule. Flush, split, merge and decommission run in
	// goroutines: their pre-flush AUQ drains can stall behind an injected
	// fault until the window heals, and must not delay later events.
	var admin sync.WaitGroup
	var noteMu sync.Mutex
	note := func(format string, args ...any) {
		noteMu.Lock()
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
		noteMu.Unlock()
	}

	// Elastic bookkeeping: adds are recorded so removes can prefer them.
	var elasticMu sync.Mutex
	var added []string

	// With admission control armed, sample the worst single-region backlog
	// continuously — the cap must hold THROUGH the faults, not just at the
	// end.
	var maxBacklog atomic.Int64
	if cfg.AUQMaxBacklog > 0 {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := m.MaxRegionQueueDepth(); d > maxBacklog.Load() {
					maxBacklog.Store(d)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	start := time.Now()
	for _, ev := range res.Schedule {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		switch ev.Kind {
		case EvCrash:
			if err := db.CrashServer(ev.Target); err != nil {
				note("crash %s: %v", ev.Target, err)
			}
		case EvRestart:
			if err := db.RestartServer(ev.Target); err != nil {
				note("restart %s: %v", ev.Target, err)
			}
		case EvFlush:
			admin.Add(1)
			go func() {
				defer admin.Done()
				if err := db.FlushAll(); err != nil {
					note("flush: %v", err)
				}
			}()
		case EvSplit:
			if id, key, ok := pickSplit(db, cfg.Records); ok {
				admin.Add(1)
				go func() {
					defer admin.Done()
					if err := db.SplitRegion(id, key); err != nil {
						note("split %s: %v", id, err)
					}
				}()
			}
		case EvAddServer:
			id := db.AddServer()
			elasticMu.Lock()
			added = append(added, id)
			res.Added = append(res.Added, id)
			elasticMu.Unlock()
		case EvRemoveServer:
			// Resolve the victim now: prefer the most recently added server
			// still live, else an original server when at least three remain
			// assignable (the checkers' scatter reads need survivors).
			live := make(map[string]bool)
			for _, id := range db.LiveServers() {
				live[id] = true
			}
			target := ""
			elasticMu.Lock()
			for i := len(added) - 1; i >= 0; i-- {
				if live[added[i]] {
					target = added[i]
					added = append(added[:i], added[i+1:]...)
					break
				}
			}
			elasticMu.Unlock()
			if target == "" {
				if ids := db.LiveServers(); len(ids) >= 3 {
					target = ids[len(ids)-1]
				}
			}
			if target == "" {
				note("remove-server: no eligible target")
				continue
			}
			// Decommission drains and hands off in a goroutine: its FlushAll
			// can stall behind a partition until the window heals.
			admin.Add(1)
			go func(target string) {
				defer admin.Done()
				if err := db.RemoveServer(target); err != nil {
					note("remove %s: %v", target, err)
					return
				}
				elasticMu.Lock()
				res.Removed = append(res.Removed, target)
				elasticMu.Unlock()
			}(target)
		case EvMerge:
			if lo, hi, ok := pickMerge(db, cfg.Records); ok {
				admin.Add(1)
				go func() {
					defer admin.Done()
					if err := db.MergeRegions(lo, hi); err != nil {
						note("merge %s+%s: %v", lo, hi, err)
						return
					}
					elasticMu.Lock()
					res.Merges++
					elasticMu.Unlock()
				}()
			}
		case EvPartition:
			a, b := splitPair(ev.Target)
			db.PartitionNetwork(a, b)
		case EvHeal:
			a, b := splitPair(ev.Target)
			c.Net.Heal(a, b)
		case EvDiskFault:
			fault.Arm(vfs.FaultConfig{
				Seed:             mix(cfg.Seed, "disk"),
				WriteErrProb:     0.05,
				PartialWriteProb: 0.05,
				SyncErrProb:      0.05,
				SpikeProb:        0.02,
				SpikeLatency:     500 * time.Microsecond,
				// Fault only commit logs: WAL framing tolerates torn tails
				// by design, while a corrupted SSTable would be a different
				// (unmodeled) failure class.
				PathSubstr: "/wal/",
			})
		case EvDiskCalm:
			fault.Disarm()
		case EvNetFault:
			c.Net.ArmFaults(simnet.FaultConfig{
				Seed:       mix(cfg.Seed, "net"),
				DropProb:   0.03,
				DelayProb:  0.05,
				ExtraDelay: 200 * time.Microsecond,
			})
		case EvNetCalm:
			c.Net.DisarmFaults()
		}
	}
	if d := time.Until(start.Add(cfg.Duration)); d > 0 {
		time.Sleep(d)
	}

	// Quiesce: stop injecting before stopping workers, so operations
	// blocked behind a partition or a fault window can complete.
	close(stop)
	fault.Disarm()
	c.Net.DisarmFaults()
	db.HealNetwork()
	workers.Wait()
	admin.Wait()
	for _, id := range crashedServers(db) {
		if err := db.RestartServer(id); err != nil {
			note("final restart %s: %v", id, err)
		}
	}

	res.Converged = db.WaitForIndexes(30 * time.Second)
	if !res.Converged {
		res.Violations = append(res.Violations, Violation{"convergence",
			fmt.Sprintf("%d async index updates still pending after quiescence", db.PendingIndexUpdates())})
	}
	if cfg.Scheme == diffindex.SyncInsert {
		// Sync-insert's contract allows stale entries but requires them to
		// be cleansable; run the sweep so exactness must hold afterwards.
		// The sweep also inserts entries it finds missing, which would hide
		// them from the index-complete check below: report them here.
		reports, err := db.NewClient("chaos-admin").VerifyIndexes(workload.TableName)
		if err != nil {
			return nil, fmt.Errorf("chaos: verify sweep: %w", err)
		}
		for _, r := range reports {
			if r.Missing > 0 {
				res.Violations = append(res.Violations, Violation{"index-complete",
					fmt.Sprintf("verify sweep found %d rows with no entry in %s (lost index update)", r.Missing, r.Index)})
			}
		}
	}

	checked, vs, err := checkInvariants(db, model)
	if err != nil {
		return nil, err
	}
	res.Checked = checked
	res.Violations = append(res.Violations, vs...)
	if cfg.AUQMaxBacklog > 0 {
		// One final sample, then enforce the cap. The shed-to-sync fallback
		// re-enqueues when inline maintenance fails mid-fault, so concurrent
		// writers can overshoot the cap by at most their own count; anything
		// beyond that bounded slack means admission control leaked.
		if d := m.MaxRegionQueueDepth(); d > maxBacklog.Load() {
			maxBacklog.Store(d)
		}
		res.MaxAUQBacklog = maxBacklog.Load()
		for _, p := range db.MetricsSnapshot().Counters {
			if p.Name == "diffindex_auq_shed_total" {
				res.AUQShed += p.Value // one series per base table
			}
		}
		// Two legitimate overshoot sources: concurrent writers racing the
		// cap check (bounded by the writer count), and crash-recovery WAL
		// replay re-enqueueing up to a full cap's worth of preserved tasks
		// on top of an already-full queue — durability beats the cap during
		// recovery. So the enforced bound is 2·cap plus writer slack; an
		// uncapped run under the same load backs up into the thousands.
		bound := 2*int64(cfg.AUQMaxBacklog) + int64(cfg.Threads) + 4
		if res.MaxAUQBacklog > bound {
			res.Violations = append(res.Violations, Violation{"auq-backlog",
				fmt.Sprintf("sampled AUQ backlog %d exceeds bound %d (cap %d)",
					res.MaxAUQBacklog, bound, cfg.AUQMaxBacklog)})
		}
	}
	res.Ops = ops.Load()
	res.OpErrors = opErrs.Load()
	res.DiskFaults = fault.Stats.Total()
	res.NetDrops, res.NetDelays = c.Net.FaultCounts()
	res.Elapsed = time.Since(begin)
	exportCounters(c.Metrics(), res)
	return res, nil
}

// crashedServers lists servers currently down.
func crashedServers(db *diffindex.DB) []string {
	live := make(map[string]bool)
	for _, id := range db.LiveServers() {
		live[id] = true
	}
	var out []string
	for _, id := range db.Servers() {
		if !live[id] {
			out = append(out, id)
		}
	}
	return out
}

// pickSplit chooses the widest base-table region and its midpoint item key.
func pickSplit(db *diffindex.DB, records int64) (regionID string, splitKey []byte, ok bool) {
	regions, err := db.Regions(workload.TableName)
	if err != nil {
		return "", nil, false
	}
	bestSpan := int64(0)
	for _, r := range regions {
		lo := itemOrdinal(r.Start, 0)
		hi := itemOrdinal(r.End, records)
		mid := (lo + hi) / 2
		if span := hi - lo; span > bestSpan && mid > lo && mid < hi {
			bestSpan = span
			regionID = r.ID
			splitKey = workload.ItemKey(mid)
		}
	}
	return regionID, splitKey, regionID != ""
}

// pickMerge chooses the narrowest adjacent base-table region pair, keeping
// at least two regions so later splits still have room to work.
func pickMerge(db *diffindex.DB, records int64) (lower, upper string, ok bool) {
	regions, err := db.Regions(workload.TableName)
	if err != nil || len(regions) < 3 {
		return "", "", false
	}
	bestSpan := int64(1) << 62
	for i := 0; i+1 < len(regions); i++ {
		lo := itemOrdinal(regions[i].Start, 0)
		hi := itemOrdinal(regions[i+1].End, records)
		if span := hi - lo; span < bestSpan {
			bestSpan, lower, upper = span, regions[i].ID, regions[i+1].ID
		}
	}
	return lower, upper, lower != ""
}

// itemOrdinal decodes workload.ItemKey back to its ordinal; empty region
// bounds decode to def.
func itemOrdinal(key []byte, def int64) int64 {
	if len(key) <= 4 {
		return def
	}
	n, err := strconv.ParseInt(string(key[4:]), 10, 64)
	if err != nil {
		return def
	}
	return n
}

// exportCounters publishes the scenario's chaos counters through the
// cluster's metrics registry, alongside every other subsystem's metrics.
func exportCounters(reg *metrics.Registry, res *Result) {
	reg.Counter("diffindex_chaos_faults_total", metrics.L("kind", "disk")).Add(res.DiskFaults)
	reg.Counter("diffindex_chaos_faults_total", metrics.L("kind", "net-drop")).Add(res.NetDrops)
	reg.Counter("diffindex_chaos_faults_total", metrics.L("kind", "net-delay")).Add(res.NetDelays)
	byInv := make(map[string]int64)
	for _, v := range res.Violations {
		byInv[v.Invariant]++
	}
	for inv, n := range byInv {
		reg.Counter("diffindex_chaos_violations_total", metrics.L("invariant", inv)).Add(n)
	}
}
