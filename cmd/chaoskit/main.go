// Command chaoskit runs seeded chaos scenarios against the Diff-Index
// cluster and prints a per-scheme verdict table. Every scenario derives its
// event schedule, fault decision streams and workload key choices from one
// root seed, so a failing run replays bit-identically:
//
//	go run ./cmd/chaoskit -seed 1 -scenarios 5
//
// Scenario i uses seed root+i and rotates through the four index schemes,
// so five scenarios cover every scheme at least once. Exit status is 0 iff
// every scenario upheld every invariant. -elastic additionally runs the
// elastic cluster-dynamics scenario (live server adds, a decommission
// drain, a region merge and a split under the continuous balancer and AUQ
// admission control) once per scheme. -ablation additionally runs the
// §5.3 drain-on-flush negative control, which must produce violations.
// -integrity additionally runs the silent-corruption pair: a faulted run
// where the background scrubber must detect injected misreads (reported as
// detection latency) and the anti-entropy sweep must repair injected index
// divergence, plus an unfaulted control that must stay entirely clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"diffindex"
	"diffindex/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "root seed; schedule, faults and workload all derive from it")
	scenarios := flag.Int("scenarios", 5, "number of scenarios (index scheme rotates per scenario)")
	servers := flag.Int("servers", 3, "region servers per scenario")
	records := flag.Int64("records", 240, "item-table size")
	threads := flag.Int("threads", 3, "workload threads")
	duration := flag.Duration("duration", 1200*time.Millisecond, "chaos window per scenario")
	elastic := flag.Bool("elastic", false, "also run the elastic cluster-dynamics scenario (adds, decommission, merge, balancer, AUQ admission control) across all four schemes")
	ablation := flag.Bool("ablation", false, "also run the drain-on-flush ablation pair (broken run MUST violate)")
	integrity := flag.Bool("integrity", false, "also run the silent-corruption + index-divergence pair (faulted run + clean control)")
	timetravel := flag.Bool("timetravel", false, "also run the recovery crash scenario (WAL appends torn mid-burst; recovery must replay exactly the mutations acknowledged since the flush and keep every golden as-of read)")
	trace := flag.Bool("trace", true, "print each scenario's planned event trace")
	compactFanIn := flag.Int("compact-fanin", 0, "same-tier tables merged per compaction round, and the count that arms one (0 = store default 4; try 2 to keep the tiered engine busy)")
	flag.Parse()

	schemes := []diffindex.Scheme{diffindex.SyncFull, diffindex.SyncInsert, diffindex.AsyncSimple, diffindex.AsyncSession}
	fmt.Printf("chaoskit: %d scenario(s), root seed %d, %d server(s), %d record(s), %v window\n",
		*scenarios, *seed, *servers, *records, *duration)

	type verdict struct {
		name    string
		res     *chaos.Result
		wantBad bool // ablation's broken run is REQUIRED to violate
	}
	var verdicts []verdict
	fail := false

	for i := 0; i < *scenarios; i++ {
		cfg := chaos.ScenarioConfig{
			Seed:            *seed + int64(i),
			Scheme:          schemes[i%len(schemes)],
			Servers:         *servers,
			Records:         *records,
			Threads:         *threads,
			Duration:        *duration,
			CompactionFanIn: *compactFanIn,
		}
		fmt.Printf("\n— scenario %d/%d: scheme=%s seed=%d\n", i+1, *scenarios, cfg.Scheme, cfg.Seed)
		res, err := chaos.Run(cfg)
		if err != nil {
			fmt.Printf("  ERROR: %v\n", err)
			fail = true
			continue
		}
		if *trace {
			for _, line := range res.Schedule.Trace() {
				fmt.Println("  " + line)
			}
		}
		report(res)
		verdicts = append(verdicts, verdict{name: fmt.Sprintf("#%d %s", i+1, cfg.Scheme), res: res})
		if !res.OK() {
			fail = true
		}
	}

	if *elastic {
		for i, scheme := range schemes {
			cfg := chaos.ElasticConfig{Seed: *seed + int64(i), Scheme: scheme, AUQMaxBacklog: 64}
			fmt.Printf("\n— elastic %d/%d: scheme=%s seed=%d\n", i+1, len(schemes), scheme, cfg.Seed)
			res, err := chaos.RunElastic(cfg)
			if err != nil {
				fmt.Printf("  ERROR: %v\n", err)
				fail = true
				continue
			}
			if *trace {
				for _, line := range res.Schedule.Trace() {
					fmt.Println("  " + line)
				}
			}
			fmt.Printf("  max AUQ backlog %d (cap %d), shed-to-sync %d\n", res.MaxAUQBacklog, cfg.AUQMaxBacklog, res.AUQShed)
			report(res)
			verdicts = append(verdicts, verdict{name: fmt.Sprintf("elastic %s", scheme), res: res})
			if !res.OK() {
				fail = true
			}
		}
	}

	if *ablation {
		for _, broken := range []bool{false, true} {
			label := "drain ON (control)"
			if broken {
				label = "drain OFF (broken)"
			}
			fmt.Printf("\n— ablation: %s\n", label)
			res, err := chaos.RunDrainAblation(*seed, broken)
			if err != nil {
				fmt.Printf("  ERROR: %v\n", err)
				fail = true
				continue
			}
			report(res)
			verdicts = append(verdicts, verdict{name: "ablation " + label, res: res, wantBad: broken})
			if broken && len(res.Violations) == 0 {
				fmt.Println("  ERROR: broken recovery produced no violations — checkers are blind")
				fail = true
			}
			if !broken && !res.OK() {
				fail = true
			}
		}
	}

	if *integrity {
		fmt.Printf("\n%-22s %8s %14s %9s %6s %9s %9s %8s %11s %8s\n",
			"integrity scenario", "corrupt", "detect-latency", "injected", "found", "repaired", "residual", "checked", "violations", "elapsed")
		for _, faulted := range []bool{true, false} {
			name := "faulted"
			if !faulted {
				name = "control"
			}
			res, err := chaos.RunIntegrity(*seed, faulted)
			if err != nil {
				fmt.Printf("%-22s ERROR: %v\n", name, err)
				fail = true
				continue
			}
			latency := "—"
			if faulted {
				latency = res.DetectionLatency.Round(time.Millisecond).String()
			}
			fmt.Printf("%-22s %8d %14s %9d %6d %9d %9d %8d %11d %8s\n",
				name, res.ScrubCorruptions, latency,
				res.InjectedMissing+res.InjectedStale, res.Found, res.Repaired, res.Residual,
				res.Checked, len(res.Violations), res.Elapsed.Round(time.Millisecond))
			for _, v := range res.Violations {
				fmt.Println("  VIOLATION " + v.String())
			}
			if !res.OK() {
				fail = true
			}
		}
	}

	if *timetravel {
		fmt.Printf("\n— timetravel: torn WAL appends, crash, recover, exact replay + golden as-of reads\n")
		res, err := chaos.RunTimeTravel(*seed)
		if err != nil {
			fmt.Printf("  ERROR: %v\n", err)
			fail = true
		} else {
			fmt.Printf("%-12s %6s %8s %8s %8s %11s %8s\n",
				"", "ops", "replayed", "asof", "checked", "violations", "elapsed")
			fmt.Printf("%-12s %6d %8d %8d %8d %11d %8s\n",
				"timetravel", res.Ops,
				res.ReplayedCells, res.AsOfReads,
				res.Checked, len(res.Violations), res.Elapsed.Round(time.Millisecond))
			for _, v := range res.Violations {
				fmt.Println("  VIOLATION " + v.String())
			}
			if !res.OK() {
				fail = true
			}
		}
	}

	fmt.Printf("\n%-28s %8s %6s %7s %8s %11s %10s %8s\n",
		"scenario", "ops", "errs", "faults", "checked", "violations", "converged", "elapsed")
	for _, v := range verdicts {
		r := v.res
		vio := fmt.Sprintf("%d", len(r.Violations))
		if v.wantBad {
			vio += " (expected)"
		}
		fmt.Printf("%-28s %8d %6d %7d %8d %11s %10v %8s\n",
			v.name, r.Ops, r.OpErrors, r.DiskFaults+r.NetDrops+r.NetDelays,
			r.Checked, vio, r.Converged, r.Elapsed.Round(time.Millisecond))
	}
	if fail {
		fmt.Println("\nRESULT: FAIL")
		os.Exit(1)
	}
	fmt.Println("\nRESULT: PASS — every invariant held")
}

func report(res *chaos.Result) {
	for _, n := range res.Notes {
		fmt.Println("  note: " + n)
	}
	for _, v := range res.Violations {
		fmt.Println("  VIOLATION " + v.String())
	}
}
