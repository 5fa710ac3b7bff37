package chaos

import (
	"reflect"
	"testing"
	"time"

	"diffindex"
)

func TestPlanIsDeterministicAndPaired(t *testing.T) {
	cfg := PlanConfig{
		Duration: time.Second,
		Servers:  []string{"rs1", "rs2", "rs3"},
		Crashes:  2, Partitions: 2, Flushes: 2, Splits: 1,
		DiskFaultWindows: 1, NetFaultWindows: 1,
	}
	a, b := Plan(99, cfg), Plan(99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, Plan(100, cfg)) {
		t.Fatal("different seeds produced identical schedules")
	}

	counts := make(map[EventKind]int)
	last := time.Duration(-1)
	for _, e := range a {
		counts[e.Kind]++
		if e.At < last {
			t.Fatalf("schedule not time-ordered at %v", e)
		}
		last = e.At
	}
	for _, pair := range [][2]EventKind{
		{EvCrash, EvRestart}, {EvPartition, EvHeal},
		{EvDiskFault, EvDiskCalm}, {EvNetFault, EvNetCalm},
	} {
		if counts[pair[0]] != counts[pair[1]] {
			t.Errorf("%s/%s unpaired: %d vs %d", pair[0], pair[1], counts[pair[0]], counts[pair[1]])
		}
	}
	if counts[EvCrash] != cfg.Crashes {
		t.Errorf("crashes = %d, want %d", counts[EvCrash], cfg.Crashes)
	}
}

// The fixed-seed smoke test: a small cluster under the full fault schedule
// must uphold every invariant, for every scheme. Run with -race in CI.
func TestChaosSmoke(t *testing.T) {
	schemes := []diffindex.Scheme{
		diffindex.SyncFull, diffindex.SyncInsert,
		diffindex.AsyncSimple, diffindex.AsyncSession,
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := Run(ScenarioConfig{
				Seed:     1,
				Scheme:   scheme,
				Servers:  3,
				Records:  120,
				Threads:  2,
				Duration: 400 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Error("async index work did not converge after quiescence")
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			if res.Ops == 0 {
				t.Error("workload made no progress")
			}
			if res.Checked == 0 {
				t.Error("checkers evaluated nothing")
			}
		})
	}
}

// The negative control: with the §5.3 drain-on-flush protocol disabled, a
// flush+crash must LOSE queued index updates and the checkers must say so.
// A clean pass here would mean the harness cannot detect real loss.
func TestDrainAblationCaughtByCheckers(t *testing.T) {
	clean, err := RunDrainAblation(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("healthy protocol produced violations: %v", clean.Violations)
	}

	broken, err := RunDrainAblation(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken.Violations) == 0 {
		t.Fatal("drain-disabled recovery produced no violations — checkers are blind to index loss")
	}
	byInv := make(map[string]int)
	for _, v := range broken.Violations {
		byInv[v.Invariant]++
	}
	if byInv["index-complete"] == 0 {
		t.Errorf("want index-complete (lost entry) violations, got %v", byInv)
	}
	if byInv["index-exact"] == 0 {
		t.Errorf("want index-exact (stale entry) violations, got %v", byInv)
	}
}

// The integrity pair: a faulted run where the scrubber must detect injected
// misreads and the anti-entropy sweep must repair injected divergence, and a
// clean control where both defenses must stay silent (no false positives).
func TestIntegrityScenarioPair(t *testing.T) {
	faulted, err := RunIntegrity(7, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range faulted.Violations {
		t.Errorf("faulted run: %s", v)
	}
	if faulted.ScrubCorruptions == 0 || faulted.DetectionLatency <= 0 {
		t.Errorf("no detection: %+v", faulted)
	}
	if faulted.Found != faulted.InjectedMissing+faulted.InjectedStale || faulted.Repaired != faulted.Found {
		t.Errorf("sweep missed injected divergence: %+v", faulted)
	}

	control, err := RunIntegrity(7, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range control.Violations {
		t.Errorf("control run: %s", v)
	}
	if control.ScrubCorruptions != 0 || control.Found != 0 || control.Residual != 0 {
		t.Errorf("false positives on control run: %+v", control)
	}
}

// The recovery crash scenario: WAL appends torn mid-burst, a crash without
// Close, and recovery that must replay exactly the mutations acknowledged
// since the flush and keep every golden as-of read.
func TestTimeTravelScenario(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := RunTimeTravel(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if res.TornWrites == 0 || res.AsOfReads == 0 || res.ReplayedCells == 0 {
			t.Errorf("seed %d: scenario did not exercise its checks: %+v", seed, res)
		}
	}
}

// Incremental compaction under faults: a table-count trigger of 2 keeps the
// tiered engine busy for the whole window (every flush arms another round),
// with extra flush events feeding it tables while crashes, partitions and
// disk faults fire. This drives the paths the smoke test leaves cold —
// bounded-fan-in merges racing reads, the tombstone-at-bottom-tier rule,
// and the PostCompact piggybacked cleanse — and demands the same
// invariants: index-complete, index-exact, durability, convergence.
func TestChaosIncrementalCompaction(t *testing.T) {
	schemes := []diffindex.Scheme{
		diffindex.SyncFull, diffindex.SyncInsert,
		diffindex.AsyncSimple, diffindex.AsyncSession,
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := Run(ScenarioConfig{
				Seed:                2,
				Scheme:              scheme,
				Servers:             3,
				Records:             120,
				Threads:             2,
				Duration:            500 * time.Millisecond,
				CompactionThreshold: 2,
				CompactionFanIn:     2,
				Plan: &PlanConfig{
					Crashes: 1, Partitions: 1, Flushes: 6, Splits: 1,
					DiskFaultWindows: 1, NetFaultWindows: 1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Error("async index work did not converge after quiescence")
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			if res.Ops == 0 {
				t.Error("workload made no progress")
			}
			if res.Checked == 0 {
				t.Error("checkers evaluated nothing")
			}
		})
	}
}

// The elastic scenario: server adds, a decommission, a merge and a split
// interleaved with crashes, partitions and fault windows while the balancer
// runs and AUQ admission control caps the async backlog. Every invariant
// must hold and the sampled backlog must respect the cap.
func TestElasticScenario(t *testing.T) {
	schemes := []diffindex.Scheme{diffindex.AsyncSimple, diffindex.AsyncSession}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := RunElastic(ElasticConfig{Seed: 11, Scheme: scheme, Duration: 900 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Error("async index work did not converge after quiescence")
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			if res.Ops == 0 {
				t.Error("workload made no progress")
			}
			if len(res.Added) == 0 {
				t.Error("schedule added no servers")
			}
			if res.MaxAUQBacklog > 2*64+3+4 {
				t.Errorf("backlog %d breached the enforced bound", res.MaxAUQBacklog)
			}
			t.Logf("elastic %s: ops=%d added=%v removed=%v merges=%d maxBacklog=%d shed=%d notes=%v",
				scheme, res.Ops, res.Added, res.Removed, res.Merges, res.MaxAUQBacklog, res.AUQShed, res.Notes)
		})
	}
}
