package chaos

import (
	"fmt"
	"sync"

	"diffindex"
	"diffindex/internal/cluster"
	"diffindex/internal/core"
	"diffindex/internal/kv"
	"diffindex/internal/workload"
)

// Violation is one detected breach of a scheme's consistency contract.
type Violation struct {
	// Invariant names the broken contract: "index-complete" (a base row's
	// indexed value has no index entry — a lost index update),
	// "index-exact" (an index entry points at a row whose value no longer
	// matches — a stale entry surviving where the scheme forbids it),
	// "durability" (an acknowledged base write is missing or shadowed after
	// recovery), "session-ryw" (a session read missed the session's own
	// write), "convergence" (async queues failed to drain), or "topology" (a
	// region is routed to a server that does not serve it, unfrozen).
	Invariant string
	// Detail identifies the offending row/entry.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Model records the writes the workload got acknowledgements for: per item,
// the highest acked timestamp and the title written at it. It is the ground
// truth the durability checker compares recovered cluster state against.
type Model struct {
	mu   sync.Mutex
	rows map[int64]acked
}

type acked struct {
	ts    int64
	title string
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{rows: make(map[int64]acked)} }

// Record notes an acknowledged put of item's title at ts. Only the highest
// acked timestamp per item is kept: later acked writes supersede earlier
// ones, exactly as the store's MVCC read does.
func (m *Model) Record(item int64, ts int64, title []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.rows[item]; !ok || ts > w.ts {
		m.rows[item] = acked{ts: ts, title: string(title)}
	}
}

// Len returns the number of items with at least one acknowledged write.
func (m *Model) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}

func (m *Model) snapshot() map[int64]acked {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int64]acked, len(m.rows))
	for k, v := range m.rows {
		out[k] = v
	}
	return out
}

type titleCell struct {
	val string
	ts  int64
}

// checkInvariants compares cluster state against the per-scheme contracts
// after quiescence (workload stopped, faults disarmed, partitions healed,
// crashed servers restarted, AUQs drained, and — for sync-insert — the index
// swept). It returns the number of facts checked and every violation
// found. All schemes are held to the same post-quiescence standard: complete
// (no lost entries), exact (no stale entries) and durable (no lost acked
// writes); what differs per scheme is only how much work the runner had to
// do to reach quiescence (nothing for sync-full, a verify sweep for
// sync-insert, an AUQ drain for the async schemes).
func checkInvariants(db *diffindex.DB, model *Model) (checked int, vs []Violation, err error) {
	c, _ := db.Internal()
	raw := cluster.NewClient(c, "chaos-checker")

	// Topology first: every request for an unserved region's range exhausts
	// its retries, so the scans below would only fail on it.
	checked++
	for _, ri := range c.Master.Unserved() {
		vs = append(vs, Violation{"topology", fmt.Sprintf("region %s is routed to %s, which does not serve it", ri.ID, ri.Server)})
	}
	if len(vs) > 0 {
		return checked, vs, nil
	}

	// Base-table ground truth: every row's visible title and its timestamp.
	baseScan, err := raw.MultiScan(workload.TableName, []cluster.ScanSpec{cluster.RowRangeSpec(nil, nil)}, kv.MaxTimestamp, 0)
	if err != nil {
		return 0, nil, fmt.Errorf("chaos: base scan: %w", err)
	}
	base := make(map[string]titleCell)
	for _, sr := range baseScan[0] {
		row, col, err := kv.SplitBaseKey(sr.Key)
		if err != nil || string(col) != workload.TitleColumn {
			continue
		}
		base[string(row)] = titleCell{val: string(sr.Value), ts: int64(sr.Ts)}
	}

	// Index-table state: the set of visible (value → row) entries.
	idxName := core.IndexDef{Table: workload.TableName, Columns: []string{workload.TitleColumn}}.Name()
	idxScan, err := raw.MultiScan(idxName, []cluster.ScanSpec{{}}, kv.MaxTimestamp, 0)
	if err != nil {
		return 0, nil, fmt.Errorf("chaos: index scan: %w", err)
	}
	entries := make(map[string]map[string]bool) // row → set of indexed values
	for _, sr := range idxScan[0] {
		val, row, err := kv.SplitIndexKey(sr.Key)
		if err != nil {
			vs = append(vs, Violation{"index-exact", fmt.Sprintf("malformed index key %q", sr.Key)})
			continue
		}
		set := entries[string(row)]
		if set == nil {
			set = make(map[string]bool)
			entries[string(row)] = set
		}
		set[string(val)] = true
	}

	// Completeness: every base row's title is findable through the index.
	for row, bc := range base {
		checked++
		if !entries[row][bc.val] {
			vs = append(vs, Violation{"index-complete",
				fmt.Sprintf("row %q title %q has no index entry (lost index update)", row, bc.val)})
		}
	}

	// Exactness: every index entry points at a row that still has its value.
	for row, vals := range entries {
		for val := range vals {
			checked++
			bc, ok := base[row]
			if !ok {
				vs = append(vs, Violation{"index-exact",
					fmt.Sprintf("index entry (%q → %q) points at a missing row", val, row)})
			} else if bc.val != val {
				vs = append(vs, Violation{"index-exact",
					fmt.Sprintf("stale index entry (%q → %q); base title is %q", val, row, bc.val)})
			}
		}
	}

	// Durability: every acknowledged write survived. The base row must show
	// a timestamp at least as new as the last acked write; at the exact
	// acked timestamp the value must match. A newer timestamp is accepted
	// without a value check: it can come from a write whose ack was lost to
	// an injected response drop (applied but never acknowledged).
	for item, w := range model.snapshot() {
		checked++
		row := string(workload.ItemKey(item))
		bc, ok := base[row]
		switch {
		case !ok:
			vs = append(vs, Violation{"durability",
				fmt.Sprintf("row %q: acked write at ts %d lost entirely", row, w.ts)})
		case bc.ts < w.ts:
			vs = append(vs, Violation{"durability",
				fmt.Sprintf("row %q: base shows ts %d, older than acked ts %d", row, bc.ts, w.ts)})
		case bc.ts == w.ts && bc.val != w.title:
			vs = append(vs, Violation{"durability",
				fmt.Sprintf("row %q: value at acked ts %d is %q, want %q", row, w.ts, bc.val, w.title)})
		}
	}
	return checked, vs, nil
}
