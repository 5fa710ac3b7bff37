package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// series is one metric of one workload over the runs of a record.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type workloadRecord struct {
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

// record is every workload's numbers from one invocation, with the
// conditions they were taken under.
type record struct {
	Host      hostFacts                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// runSet is what a full set of runs is made from.
type runSet struct {
	seed    int64
	seconds float64
	smoke   bool
	runs    int
	outDir  string
}

// runAll runs every workload runs times untraced and once traced, each run
// in a process of its own so that heap, GC state and mem_sys_mb of one never
// reach the next.
func (s runSet) runAll() (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rec := &record{Host: host(), Seed: s.seed, Seconds: s.seconds, Runs: s.runs, Workloads: map[string]*workloadRecord{}}
	for _, w := range workloads {
		wr := &workloadRecord{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		rec.Workloads[w.name] = wr
		for i := 0; i <= s.runs; i++ {
			traced := i == s.runs
			seed := s.seed + int64(i)
			if traced {
				seed = s.seed
			}
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "--out", s.outDir, "--trace", "0"}
			into := wr.EndToEnd
			if traced {
				args[len(args)-1], into = "1", wr.PerLayer
			}
			if s.smoke {
				args = append(args, "-smoke")
			}
			fmt.Fprintf(os.Stderr, "running %s\n", strings.Join(args, " "))
			res, err := runChild(self, args)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				if into[name] == nil {
					into[name] = &series{Unit: v.Unit}
				}
				into[name].Values = append(into[name].Values, v.Value)
			}
		}
	}
	return rec, nil
}

// runChild runs one workload in a child process and parses the last line of
// its output.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	if !res.Correct {
		os.Stderr.Write(out)
	}
	return &res, nil
}

func (r *record) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed != 0 {
			return false
		}
	}
	return true
}

func (r *record) write(path string) error {
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print lists every metric of every workload by name, with its unit: the
// median over the record's runs and, with several runs, their quartile spread.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s  commit %s  clients %d  seed %d  seconds %g  runs %d\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit, r.Host.Clients, r.Seed, r.Seconds, r.Runs)
	for _, spec := range workloads {
		wr := r.Workloads[spec.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d attempted, %d failed)\n", spec.name, wr.Attempted, wr.Failed)
		show := func(defs []metricDef, from map[string]*series) {
			for _, d := range defs {
				if s := from[d.name]; s != nil {
					fmt.Fprintf(w, "  %-44s %16.4f %-6s spread %5.1f%%\n", d.name, medianFloat(s.Values), s.Unit, 100*quartileSpread(s.Values))
				}
			}
		}
		show(endToEnd, wr.EndToEnd)
		show(perLayer, wr.PerLayer)
	}
}

// compareRecords prints one row per workload and end-to-end metric: both
// medians, how much worse b is than a, and the metric's bound. A row whose
// spread in either record exceeds the bound is unresolved, not unchanged.
// It reports whether b stays within every bound; with bothWays (two runs of
// the same code) a is held to b's numbers as well.
func compareRecords(w io.Writer, a, b *record, bothWays bool) bool {
	ok := true
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, spec := range workloads {
		wa, wb := a.Workloads[spec.name], b.Workloads[spec.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-13s missing from a record\n", spec.name)
			ok = false
			continue
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(w, "%-13s failed ops: a %d, b %d\n", spec.name, wa.Failed, wb.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "%-13s %-20s missing from a record\n", spec.name, d.name)
				ok = false
				continue
			}
			ma, mb := medianFloat(sa.Values), medianFloat(sb.Values)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case quartileSpread(sa.Values) > d.bound || quartileSpread(sb.Values) > d.bound:
				verdict = "unresolved"
			case worse > d.bound, bothWays && math.Abs(worse) > d.bound:
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", spec.name, d.name, ma, mb, 100*worse, 100*d.bound, verdict)
		}
	}
	return ok
}
