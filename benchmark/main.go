// Command benchmark is the repository's one benchmark record. It loads the
// paper's extended-YCSB item table through the public diffindex API, runs one
// of four closed-loop workloads for a fixed time, checks every answer against
// a model, and prints every metric of BENCHMARK.json by name with its unit.
// README.md in this directory says what each number means.
//
//	benchmark --workload put-full --seed 1 --seconds 18 --trace 0   one run, end-to-end metrics
//	benchmark --workload put-full --seed 1 --seconds 18 --trace 1   one run, per-layer metrics and spans
//	benchmark [-runs n] [-json out/record.json]                     every workload, both passes, one process each
//	benchmark -compare a.json b.json                                two records against the bounds
//	benchmark -selfcheck                                            the full set twice (3 runs each), compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload in this process; empty runs all four, one process each")
		seed         = flag.Int64("seed", 1, "seed of the generated keys and op stream")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured main phase, shared by the stores of a run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, spans and the layer replay")
		smoke        = flag.Bool("smoke", false, "a few per cent of the data and ops, all checks: for tests")
		runs         = flag.Int("runs", 1, "with no -workload: how often each workload runs, seeds counting up from -seed")
		jsonOut      = flag.String("json", "out/record.json", "with no -workload: where the record is written")
		outDir       = flag.String("out", "out", "directory for span files")
		compare      = flag.Bool("compare", false, "compare two records: -compare a.json b.json")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set twice (at least 3 runs per workload each) and compare the two records")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of a -workload run here")
		memprofile   = flag.String("memprofile", "", "write a heap profile of a -workload run here")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	set := runSet{seed: *seed, seconds: *seconds, smoke: *smoke, runs: *runs, outDir: *outDir}
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		a, err := readRecord(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readRecord(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compareRecords(os.Stdout, a, b, false) {
			os.Exit(1)
		}
	case *selfcheck:
		// One run against one run differs by more than the bounds on a busy
		// host; medians of three do not.
		set.runs = max(set.runs, 3)
		a, err := set.runAll()
		if err != nil {
			fatal(err)
		}
		b, err := set.runAll()
		if err != nil {
			fatal(err)
		}
		if !compareRecords(os.Stdout, a, b, true) {
			os.Exit(1)
		}
	case *workloadName == "":
		rec, err := set.runAll()
		if err != nil {
			fatal(err)
		}
		rec.print(os.Stdout)
		if err := rec.write(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("record written to %s\n", *jsonOut)
		if !rec.correct() {
			os.Exit(1)
		}
	default:
		spec, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg := runConfig{spec: spec, sz: fullSizes, seed: *seed, seconds: *seconds, trace: *trace == 1, rounds: runStores, outDir: *outDir}
		if *smoke {
			cfg.sz, cfg.rounds = smokeSizes, 1
		}
		if err := runOne(cfg, *cpuprofile, *memprofile); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// hostFacts are the conditions a reader needs to place the numbers.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func host() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: clients, GoVersion: runtime.Version(), Commit: "unknown", Clients: clients}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runOne runs one workload in this process, prints what it measured by name
// and, as the last line, the result in the driver's format.
func runOne(cfg runConfig, cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	h := host()
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  records %d  clients %d  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace, cfg.sz.records, clients, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-44s %16.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, n := range res.notes {
		fmt.Println("  #", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// manifestJSON renders BENCHMARK.json from the catalogue in spec.go, so the
// file the driver reads and the metrics the program prints cannot drift.
func manifestJSON() []byte {
	type workloadLine struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundLine struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerLine struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadLine `json:"workloads"`
		EndToEnd   []boundLine    `json:"end_to_end"`
		PerLayer   []layerLine    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadLine{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundLine{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerLine{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
