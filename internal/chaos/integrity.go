package chaos

import (
	"errors"
	"fmt"
	"time"

	"diffindex"
	"diffindex/internal/cluster"
	"diffindex/internal/core"
	"diffindex/internal/kv"
	"diffindex/internal/vfs"
	"diffindex/internal/workload"
)

// RunIntegrity runs the silent-corruption + index-divergence scenario as a
// directed chaos pair. With faulted=true it arms the one fault class the
// other scenarios deliberately exclude — misreads that "succeed" with wrong
// bytes — and injects index divergence through the raw path, then requires
// the two online defenses to catch everything: the background scrubber must
// detect the corrupted blocks (the time-to-first-detection is the scenario's
// headline number), and the anti-entropy sweep must find and repair every
// injected violation with nothing left for a second sweep. With
// faulted=false it is the false-positive control: the same cluster, workload
// and checks with no faults armed, where any corruption count or reported
// violation means a defense is crying wolf.
//
// The workload is quiesced before the corruption window opens: misreads are
// injected below the checksum layer, so a query racing the window could be
// served garbage — detecting that is the verify-on-read knob's job, not the
// scrubber's, and mixing the two would blur what this scenario measures.
func RunIntegrity(seed int64, faulted bool) (*IntegrityResult, error) {
	res := &IntegrityResult{Seed: seed, Faulted: faulted}
	begin := time.Now()
	check := func(ok bool, invariant, format string, args ...any) {
		res.Checked++
		if !ok {
			res.Violations = append(res.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
		}
	}

	const scrubInterval = 20 * time.Millisecond
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	db := diffindex.Open(diffindex.Options{
		Servers:        3,
		BaseFS:         fault,
		ScrubInterval:  scrubInterval,
		ScrubBlockPace: -1, // unpaced: detection latency measures the scrubber, not its throttle
		DisableTracing: true,
	})
	defer db.Close()
	c, _ := db.Internal()

	const records = 120
	if err := db.CreateTable(workload.TableName, workload.TableSplits(records, 3)); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(workload.TableName, []string{workload.TitleColumn}, diffindex.SyncFull,
		workload.TitleIndexSplits(records, 3)); err != nil {
		return nil, err
	}
	if err := workload.Load(db, records, 3); err != nil {
		return nil, err
	}
	if !db.WaitForIndexes(10 * time.Second) {
		return nil, errors.New("chaos: integrity indexes did not converge after load")
	}
	// Flush everything so the data at risk is in SSTables — the scrubber
	// walks flushed blocks, not the memtable.
	if err := db.FlushAll(); err != nil {
		return nil, err
	}
	check(db.Health().Status == diffindex.HealthOK, "health",
		"pre-fault health is %q, want ok", db.Health().Status)

	// Phase 1: silent corruption. Arm misreads on .sst paths only and wait
	// for the scrubber's damage counter to move.
	if faulted {
		t0 := time.Now()
		fault.Arm(vfs.FaultConfig{Seed: mix(seed, "corrupt"), ReadCorruptProb: 1, PathSubstr: ".sst"})
		deadline := time.Now().Add(10 * time.Second)
		for db.Health().ScrubCorruptions == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		res.DetectionLatency = time.Since(t0)
		res.ScrubCorruptions = db.Health().ScrubCorruptions
		fault.Disarm()
		check(res.ScrubCorruptions > 0, "scrub-detect",
			"scrubber saw no corruption within %v of arming misreads", 10*time.Second)
		check(db.Health().Status == diffindex.HealthUnhealthy, "health",
			"health after detected corruption is %q, want unhealthy", db.Health().Status)
	} else {
		// Control: let several scrub cycles run over clean tables.
		deadline := time.Now().Add(10 * time.Second)
		for db.Health().ScrubCyclesTotal < 3 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		h := db.Health()
		check(h.ScrubCyclesTotal >= 3, "scrub-detect",
			"scrubber completed only %d cycles in 10s", h.ScrubCyclesTotal)
		res.ScrubCorruptions = h.ScrubCorruptions
		check(h.ScrubCorruptions == 0, "scrub-false-positive",
			"scrubber reported %d corruptions on a clean store", h.ScrubCorruptions)
	}

	// Phase 2: index divergence. Inject lost inserts (base rows the index
	// never saw) and phantom entries (index keys no base row justifies)
	// through the raw path, then demand the anti-entropy sweep find and
	// repair exactly that set.
	raw := cluster.NewClient(c, "chaos-integrity")
	idxName := core.IndexDef{Table: workload.TableName, Columns: []string{workload.TitleColumn}}.Name()
	if faulted {
		res.InjectedMissing, res.InjectedStale = 3, 2
		var lost, phantoms []kv.Cell
		for i := 0; i < res.InjectedMissing; i++ {
			lost = append(lost, kv.Cell{
				Key:   kv.BaseKey(workload.ItemKey(records+int64(i)), []byte(workload.TitleColumn)),
				Value: []byte(fmt.Sprintf("lost-title-%d", i)),
				Ts:    kv.Timestamp(900000 + i), Kind: kv.KindPut,
			})
		}
		for i := 0; i < res.InjectedStale; i++ {
			key := kv.IndexKey([]byte(fmt.Sprintf("phantom-title-%d", i)), workload.ItemKey(int64(i)))
			phantoms = append(phantoms, kv.Cell{Key: key, Ts: kv.Timestamp(800000 + i), Kind: kv.KindPut})
		}
		if err := raw.MultiApply(workload.TableName, lost); err != nil {
			return nil, fmt.Errorf("chaos: inject missing: %w", err)
		}
		if err := raw.MultiApply(idxName, phantoms); err != nil {
			return nil, fmt.Errorf("chaos: inject stale: %w", err)
		}
	}

	cl := db.NewClient("chaos-integrity-sweep")
	reports, err := cl.VerifyIndexes(workload.TableName)
	if err != nil {
		return nil, fmt.Errorf("chaos: verify sweep: %w", err)
	}
	for _, r := range reports {
		res.Found += r.Missing + r.Stale
		res.Repaired += r.Repaired
	}
	injected := res.InjectedMissing + res.InjectedStale
	if faulted {
		check(res.Found == injected, "antientropy-detect",
			"sweep found %d violations, injected %d", res.Found, injected)
		check(res.Repaired == res.Found, "antientropy-repair",
			"sweep repaired %d of %d found violations", res.Repaired, res.Found)
	} else {
		check(res.Found == 0, "antientropy-false-positive",
			"sweep reported %d violations on an untampered index", res.Found)
	}

	// A second sweep must be clean either way: repairs converged (faulted)
	// or nothing ever diverged (control). Clean means no candidate pair at
	// all, not only none confirmed: the workload is quiet, so a transient
	// is a divergence the first sweep left behind.
	reports, err = cl.VerifyIndexes(workload.TableName)
	if err != nil {
		return nil, fmt.Errorf("chaos: residual sweep: %w", err)
	}
	for _, r := range reports {
		res.Residual += r.Missing + r.Stale + r.Transient
	}
	check(res.Residual == 0, "antientropy-repair",
		"residual divergence after repair: %d", res.Residual)

	// Health must agree with the ledger: every violation found was repaired,
	// so the only permissible degradation is the (cumulative, intentional)
	// corruption count from phase 1.
	h := db.Health()
	check(h.IndexViolationsFound == h.IndexViolationsRepaired, "health",
		"health shows %d found vs %d repaired", h.IndexViolationsFound, h.IndexViolationsRepaired)
	if !faulted {
		check(h.Status == diffindex.HealthOK, "health",
			"control run ends with health %q (%v), want ok", h.Status, h.Reasons)
	}

	res.Elapsed = time.Since(begin)
	return res, nil
}

// IntegrityResult is one integrity scenario's outcome.
type IntegrityResult struct {
	Seed    int64
	Faulted bool
	// ScrubCorruptions is the scrubber's cumulative damage count at the end
	// of the corruption window; DetectionLatency the time from arming
	// misreads to the first nonzero count (zero on control runs).
	ScrubCorruptions int64
	DetectionLatency time.Duration
	// InjectedMissing/InjectedStale are the violations planted through the
	// raw path; Found/Repaired what the anti-entropy sweep confirmed and
	// fixed; Residual what a second sweep still saw (must be zero).
	InjectedMissing, InjectedStale int
	Found, Repaired, Residual      int
	// Checked counts assertions evaluated; Violations the failed ones.
	Checked    int
	Violations []Violation
	Elapsed    time.Duration
}

// OK reports whether every integrity assertion held.
func (r *IntegrityResult) OK() bool { return len(r.Violations) == 0 }
