package diffindex

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"diffindex/internal/metrics"
)

// This file is the DB's live observability surface: programmatic snapshots
// of the metrics registry, the slow-operation log, a periodic JSON dumper,
// and an expvar-style HTTP endpoint. All of it reads the same registry that
// the hot paths write, so numbers here always agree with IOCounts and
// Staleness (which are views over the same instruments).

// MetricsSnapshot returns a point-in-time snapshot of every counter, gauge
// and histogram in the DB's metrics registry. Counters and gauges are read
// atomically; histograms use the weakly consistent (but internally
// consistent) single-pass snapshot documented on metrics.Histogram.
func (db *DB) MetricsSnapshot() metrics.RegistrySnapshot {
	return db.c.Metrics().Snapshot()
}

// SlowOps returns the K slowest operations recorded so far (slowest first),
// each with its per-stage latency breakdown. K is 32; the log is empty when
// Options.DisableTracing is set.
func (db *DB) SlowOps() []metrics.SlowOp {
	return db.c.Tracer().SlowOps()
}

// Health status levels, ordered by severity.
const (
	// HealthOK: no corruption, no failing background work.
	HealthOK = "ok"
	// HealthDegraded: the store serves requests but something needs operator
	// attention (failing compactions, crashed servers, a backed-up AUQ, or
	// index violations found that could not be repaired).
	HealthDegraded = "degraded"
	// HealthUnhealthy: data integrity is in question (checksum corruption
	// detected) or no server is live.
	HealthUnhealthy = "unhealthy"
)

// healthAUQDepthThreshold is the queued-async-update depth beyond which the
// DB reports degraded: the default AUQ capacity is 4096 per region, so a
// cluster-wide backlog past this level means async indexes are far behind.
const healthAUQDepthThreshold = 4096

// Health is an aggregate health view of the DB, computed from the metrics
// registry plus live cluster state. Status is HealthOK, HealthDegraded or
// HealthUnhealthy; Reasons explains every non-ok contribution.
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`

	// Integrity scrubbing (cluster-wide sums over every region store).
	ScrubCorruptions int64 `json:"scrub_corruptions"`
	ScrubBlocksTotal int64 `json:"scrub_blocks_total"`
	ScrubBytesTotal  int64 `json:"scrub_bytes_total"`
	ScrubCyclesTotal int64 `json:"scrub_cycles_total"`

	// Background maintenance.
	CompactionErrors int64 `json:"compaction_errors"`

	// Asynchronous index pipeline.
	PendingIndexUpdates int64 `json:"pending_index_updates"`

	// Anti-entropy verification: confirmed violations found vs repaired,
	// cumulative. Outstanding = found − repaired.
	IndexViolationsFound    int64 `json:"index_violations_found"`
	IndexViolationsRepaired int64 `json:"index_violations_repaired"`

	// Topology.
	LiveServers  int `json:"live_servers"`
	TotalServers int `json:"total_servers"`
}

// sumCounters totals every counter with the given name across the label sets
// that carry all of the match labels.
func sumCounters(points []metrics.MetricPoint, name string, match ...metrics.Label) int64 {
	var total int64
next:
	for _, p := range points {
		if p.Name != name {
			continue
		}
		for _, l := range match {
			if p.Labels[l.Key] != l.Value {
				continue next
			}
		}
		total += p.Value
	}
	return total
}

// Health computes the DB's aggregate health from the same registry the
// metrics endpoints serve, so /healthz always agrees with /metrics. The
// status rules: checksum corruption anywhere (or zero live servers) is
// unhealthy; failing compactions, crashed servers, an AUQ backlog past the
// threshold, or unrepaired index violations are degraded; otherwise ok.
func (db *DB) Health() Health {
	snap := db.c.Metrics().Snapshot()
	h := Health{
		ScrubCorruptions:        sumCounters(snap.Counters, "diffindex_scrub_corruptions_total"),
		ScrubBlocksTotal:        sumCounters(snap.Counters, "diffindex_scrub_blocks_total"),
		ScrubBytesTotal:         sumCounters(snap.Counters, "diffindex_scrub_bytes_total"),
		ScrubCyclesTotal:        sumCounters(snap.Counters, "diffindex_scrub_cycles_total"),
		CompactionErrors:        sumCounters(snap.Counters, "diffindex_compaction_errors_total"),
		PendingIndexUpdates:     db.m.QueueDepth(),
		IndexViolationsFound:    sumCounters(snap.Counters, "diffindex_reconcile_confirmed_total", metrics.L("source", "verify")),
		IndexViolationsRepaired: sumCounters(snap.Counters, "diffindex_reconcile_repaired_total", metrics.L("source", "verify")),
		LiveServers:             len(db.c.LiveServerIDs()),
		TotalServers:            len(db.c.ServerIDs()),
	}

	h.Status = HealthOK
	degrade := func(reason string) {
		if h.Status == HealthOK {
			h.Status = HealthDegraded
		}
		h.Reasons = append(h.Reasons, reason)
	}
	fail := func(reason string) {
		h.Status = HealthUnhealthy
		h.Reasons = append(h.Reasons, reason)
	}
	if h.ScrubCorruptions > 0 {
		fail(fmt.Sprintf("scrubber detected %d corrupted blocks", h.ScrubCorruptions))
	}
	if h.LiveServers == 0 {
		fail("no live region servers")
	}
	if h.CompactionErrors > 0 {
		degrade(fmt.Sprintf("%d background compaction rounds failed", h.CompactionErrors))
	}
	if h.LiveServers < h.TotalServers {
		degrade(fmt.Sprintf("%d of %d region servers down", h.TotalServers-h.LiveServers, h.TotalServers))
	}
	if h.PendingIndexUpdates > healthAUQDepthThreshold {
		degrade(fmt.Sprintf("async index backlog %d exceeds %d", h.PendingIndexUpdates, healthAUQDepthThreshold))
	}
	if out := h.IndexViolationsFound - h.IndexViolationsRepaired; out > 0 {
		degrade(fmt.Sprintf("%d index violations found but not repaired", out))
	}
	return h
}

// metricsDump is the envelope StartMetricsDump writes: one JSON object per
// line, timestamped so dumps can be correlated with experiment phases.
type metricsDump struct {
	UnixNs  int64                    `json:"unix_ns"`
	Metrics metrics.RegistrySnapshot `json:"metrics"`
}

// StartMetricsDump writes a JSON line with the full registry snapshot to w
// every interval until the returned stop function is called. Writes are
// serialized; errors from w stop the dumper. Intended for piping live stats
// from long-running programs into a file or a terminal.
func (db *DB) StartMetricsDump(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		enc := json.NewEncoder(w)
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				d := metricsDump{UnixNs: time.Now().UnixNano(), Metrics: db.MetricsSnapshot()}
				if err := enc.Encode(d); err != nil {
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// MetricsHandler returns an http.Handler that serves the registry as JSON —
// an expvar-style live stats endpoint:
//
//	/         the full registry snapshot (stable JSON: sorted keys)
//	/slowops  the slow-op log with per-stage breakdowns
//	/healthz  the aggregate Health view (HTTP 503 when unhealthy)
//
// Mount it wherever convenient, or use StartMetricsHTTP for a ready server.
func (db *DB) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" && r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		buf, err := db.MetricsSnapshot().MarshalStableJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(buf)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := db.Health()
		buf, err := json.MarshalIndent(h, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if h.Status == HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write(buf)
	})
	mux.HandleFunc("/slowops", func(w http.ResponseWriter, r *http.Request) {
		buf, err := json.MarshalIndent(db.SlowOps(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(buf)
	})
	return mux
}

// StartMetricsHTTP serves MetricsHandler on addr (e.g. "localhost:0"; the
// returned string is the bound address, useful with port 0). The server
// shuts down when stop is called or the DB is not otherwise torn down —
// callers own the lifecycle.
func (db *DB) StartMetricsHTTP(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("diffindex: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: db.MetricsHandler()}
	go srv.Serve(ln)
	var once sync.Once
	return ln.Addr().String(), func() { once.Do(func() { srv.Close() }) }, nil
}
