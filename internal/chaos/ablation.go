package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"diffindex"
	"diffindex/internal/core"
	"diffindex/internal/workload"
)

// RunDrainAblation runs the §5.3 recovery-protocol ablation as a directed
// chaos scenario: partition an async-indexed base region away from its index
// region so queued index updates back up in the AUQ, flush the base region,
// crash its server, then heal and check the invariants.
//
// With disableDrain=false the pre-flush AUQ drain runs (after the heal, so
// it can complete) and the crash loses nothing: zero violations. With
// disableDrain=true the flush truncates the WAL while the AUQ still holds
// the updates, so the crash destroys the only record of them — the
// index-complete and index-exact checkers must report violations. A harness
// whose checkers pass the broken protocol would be worthless; this is the
// negative control proving they catch real loss.
func RunDrainAblation(seed int64, disableDrain bool) (*Result, error) {
	res := &Result{Seed: seed, Scheme: diffindex.AsyncSimple}
	begin := time.Now()

	db := diffindex.Open(diffindex.Options{
		Servers:                   3,
		CompactionThreshold:       64,
		UnsafeDisableDrainOnFlush: disableDrain,
		DisableTracing:            true,
	})
	defer db.Close()
	c, _ := db.Internal()

	// Single-region base and index tables, so "the base server" and "the
	// index server" are well defined (the master's offset round-robin puts
	// them on different servers).
	if err := db.CreateTable(workload.TableName, nil); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(workload.TableName, []string{workload.TitleColumn}, diffindex.AsyncSimple, nil); err != nil {
		return nil, err
	}
	baseRegions, err := db.Regions(workload.TableName)
	if err != nil {
		return nil, err
	}
	baseSrv := baseRegions[0].Server
	idxName := core.IndexDef{Table: workload.TableName, Columns: []string{workload.TitleColumn}}.Name()
	idxRegions, err := db.Regions(idxName)
	if err != nil {
		return nil, err
	}
	if idxRegions[0].Server == baseSrv {
		return nil, errors.New("chaos: ablation needs the index region off the base server")
	}

	cl := db.NewClient("chaos-ablation")
	model := NewModel()
	rng := rand.New(rand.NewSource(mix(seed, "ablation")))
	const items = 40
	for i := int64(0); i < items; i++ {
		ts, err := cl.Put(workload.TableName, workload.ItemKey(i), workload.ItemRow(i, rng))
		if err != nil {
			return nil, fmt.Errorf("chaos: ablation load: %w", err)
		}
		model.Record(i, ts, workload.TitleValue(i))
	}
	if !db.WaitForIndexes(10 * time.Second) {
		return nil, errors.New("chaos: ablation indexes did not converge after load")
	}

	// Cut the base server off from every peer: the APS cannot reach the
	// index region, so each title update below parks in the AUQ.
	for _, id := range db.Servers() {
		if id != baseSrv {
			db.PartitionNetwork(baseSrv, id)
		}
	}
	for i := int64(0); i < items; i++ {
		title := workload.UpdatedTitleValue(i, i+1)
		ts, err := cl.Put(workload.TableName, workload.ItemKey(i), diffindex.Cols{workload.TitleColumn: title})
		if err != nil {
			return nil, fmt.Errorf("chaos: ablation update: %w", err)
		}
		model.Record(i, ts, title)
		res.Ops++
	}

	if disableDrain {
		// Flush under partition with the drain protocol OFF: the WAL is
		// truncated while the AUQ still holds every index update. The crash
		// then drops the AUQ, and replay finds an empty WAL — the updates
		// are gone for good.
		if err := c.Server(baseSrv).FlushAll(); err != nil {
			return nil, fmt.Errorf("chaos: ablation flush: %w", err)
		}
		if err := db.CrashServer(baseSrv); err != nil {
			return nil, err
		}
		db.HealNetwork()
	} else {
		// Healthy protocol: heal first (the drain needs the network), then
		// flush — PreFlush drains the AUQ before the WAL truncation — then
		// crash. Nothing is lost.
		db.HealNetwork()
		if err := c.Server(baseSrv).FlushAll(); err != nil {
			return nil, fmt.Errorf("chaos: ablation flush: %w", err)
		}
		if err := db.CrashServer(baseSrv); err != nil {
			return nil, err
		}
	}
	for _, id := range crashedServers(db) {
		if err := db.RestartServer(id); err != nil {
			return nil, err
		}
	}
	res.Converged = db.WaitForIndexes(20 * time.Second)
	if !res.Converged {
		res.Violations = append(res.Violations, Violation{"convergence",
			fmt.Sprintf("%d async index updates still pending", db.PendingIndexUpdates())})
	}
	checked, vs, err := checkInvariants(db, model)
	if err != nil {
		return nil, err
	}
	res.Checked = checked
	res.Violations = append(res.Violations, vs...)
	res.Elapsed = time.Since(begin)
	exportCounters(c.Metrics(), res)
	return res, nil
}
