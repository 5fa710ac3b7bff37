package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"diffindex/internal/metrics"
	"diffindex/internal/workload"
)

// TestSmoke runs every workload through both passes at a few per cent of the
// full size, with every check on: each metric of the manifest must come out,
// and no op may fail.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{spec: spec, sz: smokeSizes, seed: 1, seconds: 0.3, trace: trace, rounds: 2, outDir: out}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", spec.name, trace, res.Attempted, res.Failed, res.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", spec.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", spec.name, d.name)
				case v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v %q", spec.name, d.name, v.Value, v.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, d.name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(out + "/spans-" + spec.name + ".json"); err != nil {
					t.Errorf("%s: span file: %v", spec.name, err)
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.99, 0.5}, {19, 0.99, 0.5}, {20, 0.99, 0.5}, {100, 0.99, 0.9}, {500, 0.99, 0.98},
		{1000, 0.99, 0.99}, {100000, 0.99, 0.99}, {5000, 0.999, 0.998}, {100000, 0.999, 0.999},
	} {
		if got := tailPercentile(c.n, c.limit); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
	// At least ten samples lie beyond the reported percentile.
	for n := 20; n < 3000; n += 7 {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		v := quantile(sorted, tailPercentile(n, 0.999))
		if beyond := float64(n-1) - math.Floor(v+1e-9); beyond < 10 {
			t.Fatalf("n=%d: %v samples beyond the percentile", n, beyond)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	// statistics.quantiles([3, 5, 8], n=4) == [3.0, 5.0, 8.0]
	if got := quartileSpread([]float64{5, 3, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

func opStreamHash(seed int64, n int) uint64 {
	g := newGenerator(seed, 1, 5000, workloads[3].mix)
	for i := 0; i < n; i++ {
		g.next()
	}
	return g.hash
}

func TestGeneratorDeterminism(t *testing.T) {
	if a, b := opStreamHash(7, 20000), opStreamHash(7, 20000); a != b {
		t.Errorf("same seed gave op streams %x and %x", a, b)
	}
	if a, b := opStreamHash(7, 20000), opStreamHash(8, 20000); a == b {
		t.Errorf("seeds 7 and 8 gave the same op stream %x", a)
	}
	g := newGenerator(3, 1, 5001, workloads[2].mix)
	for i := 0; i < 20000; i++ {
		o := g.next()
		if o.item%clients != 1 || o.item < 0 || o.item >= 5001 || o.kind == workload.OpRangeRead && o.item+rangeSpan > 5001 {
			t.Fatalf("op %+v outside client 1's items", o)
		}
	}
}

func TestMissingRegistryMetricFails(t *testing.T) {
	have := &counters{reg: metrics.RegistrySnapshot{
		Counters:   []metrics.MetricPoint{{Name: "diffindex_wal_appends_total", Labels: map[string]string{"table": "item"}, Value: 5}},
		Histograms: []metrics.HistogramPoint{{Name: "diffindex_stage_latency_ns", Labels: map[string]string{"stage": "wal"}, Count: 2, Mean: 10}},
	}}
	d := &delta{from: &counters{}, to: have, present: have}
	if got := d.count("diffindex_wal_appends_total", "table", "item"); got != 5 || d.err() != nil {
		t.Fatalf("present counter: %v, %v", got, d.err())
	}
	if n, total := d.histDelta("diffindex_stage_latency_ns", "stage", "wal"); n != 2 || total != 20 {
		t.Fatalf("present histogram: %v, %v", n, total)
	}
	d.count("diffindex_wal_appends_total", "table", "renamed")
	d.histMean("diffindex_renamed_ns")
	err := d.err()
	if err == nil || !strings.Contains(err.Error(), "diffindex_renamed_ns") || !strings.Contains(err.Error(), "table,renamed") {
		t.Fatalf("absent metrics must fail the run by name, got %v", err)
	}
}

func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}

func TestCompareFlagsRegressionAndUnresolved(t *testing.T) {
	rec := func(tput, p99 []float64) *record {
		r := &record{Workloads: map[string]*workloadRecord{}}
		for _, w := range workloads {
			wr := &workloadRecord{EndToEnd: map[string]*series{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = &series{Unit: d.unit, Values: []float64{100, 100, 100}}
			}
			wr.EndToEnd["throughput_ops_s"].Values = tput
			wr.EndToEnd["op_p99_us"].Values = p99
			r.Workloads[w.name] = wr
		}
		return r
	}
	base := rec([]float64{1000, 1010, 990}, []float64{100, 101, 99})
	if !compareRecords(io.Discard, base, rec([]float64{950, 960, 940}, []float64{110, 111, 109}), false) {
		t.Error("changes inside the bounds were flagged")
	}
	if compareRecords(io.Discard, base, rec([]float64{650, 660, 640}, []float64{100, 101, 99}), false) {
		t.Error("a 35 % throughput loss passed")
	}
	var out bytes.Buffer
	if !compareRecords(&out, base, rec([]float64{1000, 1010, 990}, []float64{100, 300, 50}), false) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out.String())
	}
	if compareRecords(io.Discard, base, rec([]float64{1400, 1410, 1390}, []float64{100, 101, 99}), true) {
		t.Error("selfcheck must fail when two runs of one program disagree, even upwards")
	}
}
