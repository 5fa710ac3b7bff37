package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"diffindex"
	"diffindex/internal/metrics"
)

// counters is everything the program already exports, read from outside at
// one instant: the metrics registry, the simulated disk and network, and the
// process's own CPU and memory.
type counters struct {
	reg      metrics.RegistrySnapshot
	fsReads  int64
	fsSyncs  int64
	fsRdB    int64
	fsWrB    int64
	netCalls int64
	mem      runtime.MemStats
	cpu      time.Duration
}

func readCounters(db *diffindex.DB) *counters {
	c := &counters{reg: db.MetricsSnapshot(), cpu: processCPU()}
	cl, _ := db.Internal()
	c.fsReads, _, c.fsSyncs, c.fsRdB, c.fsWrB = cl.FS.Stats.Snapshot()
	c.netCalls = cl.Net.Calls()
	runtime.ReadMemStats(&c.mem)
	return c
}

// processCPU is the user+system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// labelsMatch reports whether have carries every key=value pair of want.
func labelsMatch(have map[string]string, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if have[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// scalar sums every counter or gauge called name whose labels include the
// given key, value pairs. ok is false when the registry has no such metric.
func (c *counters) scalar(name string, labels ...string) (v int64, ok bool) {
	for _, set := range [][]metrics.MetricPoint{c.reg.Counters, c.reg.Gauges} {
		for _, p := range set {
			if p.Name == name && labelsMatch(p.Labels, labels) {
				v += p.Value
				ok = true
			}
		}
	}
	return v, ok
}

// hist sums count and total (mean x count) over the matching histograms.
func (c *counters) hist(name string, labels ...string) (count int64, total float64, ok bool) {
	for _, h := range c.reg.Histograms {
		if h.Name == name && labelsMatch(h.Labels, labels) {
			count += h.Count
			total += h.Mean * float64(h.Count)
			ok = true
		}
	}
	return count, total, ok
}

// delta reads the change of registry metrics between two instants. A metric
// the workload needs but the registry does not have is collected in missing:
// the run then fails instead of reporting a 0 that hides a renamed counter.
type delta struct {
	from, to *counters
	present  *counters // taken after every op kind has run: what must exist by then
	missing  []string
}

func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return fmt.Sprintf("%s{%s}", name, strings.Join(labels, ","))
}

func (d *delta) count(name string, labels ...string) float64 {
	if _, ok := d.present.scalar(name, labels...); !ok {
		d.missing = append(d.missing, metricID(name, labels))
		return 0
	}
	after, _ := d.to.scalar(name, labels...)
	before, _ := d.from.scalar(name, labels...)
	return float64(after - before)
}

// histDelta is the number of samples recorded in the interval and their sum.
func (d *delta) histDelta(name string, labels ...string) (count, total float64) {
	if _, _, ok := d.present.hist(name, labels...); !ok {
		d.missing = append(d.missing, metricID(name, labels))
		return 0, 0
	}
	c1, t1, _ := d.to.hist(name, labels...)
	c0, t0, _ := d.from.hist(name, labels...)
	return float64(c1 - c0), t1 - t0
}

func (d *delta) histMean(name string, labels ...string) float64 {
	n, total := d.histDelta(name, labels...)
	if n <= 0 {
		return 0
	}
	return total / n
}

func (d *delta) err() error {
	if len(d.missing) == 0 {
		return nil
	}
	sort.Strings(d.missing)
	return fmt.Errorf("registry metrics absent: %s", strings.Join(d.missing, ", "))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
