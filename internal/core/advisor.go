package core

import (
	"fmt"
	"sync"

	"diffindex/internal/cluster"
)

// This file implements workload-aware scheme selection, the paper's future
// work ("Ideally Diff-Index should be able to adaptively choose a scheme by
// understanding consistency requirements and observing workload
// characteristics such as read/write ratio", §3.4). The Advisor tracks
// per-index update and read rates and recommends a scheme following the
// paper's five usage principles; SetScheme applies a recommendation live.

// SetScheme changes an index's maintenance scheme at runtime. Leaving
// sync-insert triggers a verify sweep: the other schemes' read paths do not
// repair stale entries, so any left behind would linger forever.
func (m *Manager) SetScheme(cl *cluster.Client, table string, columns []string, scheme Scheme) error {
	def, ok := m.catalog.Find(table, columns...)
	if !ok {
		return fmt.Errorf("core: no index on %s(%v)", table, columns)
	}
	if def.Scheme == scheme {
		return nil
	}
	if def.Scheme == SyncInsert && scheme != SyncInsert {
		if _, err := m.verifyIndex(cl, def); err != nil {
			return fmt.Errorf("core: verify before scheme switch: %w", err)
		}
	}
	if !m.catalog.UpdateScheme(table, def.Name(), scheme) {
		return fmt.Errorf("core: index %s disappeared during scheme switch", def.Name())
	}
	return nil
}

// Requirements captures an application's declared needs for one index,
// mirroring the inputs to the paper's five usage principles (§3.4).
type Requirements struct {
	// NeedConsistency: reads must reflect all completed writes.
	NeedConsistency bool
	// NeedReadYourWrites: a session must see its own writes (weaker than
	// full consistency).
	NeedReadYourWrites bool
	// ReadLatencyCritical / UpdateLatencyCritical break ties.
	ReadLatencyCritical   bool
	UpdateLatencyCritical bool
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Scheme    Scheme
	Rationale string
	// Updates and Reads are the observed op counts the recommendation was
	// based on.
	Updates, Reads int64
}

// Advisor observes per-index workload characteristics and recommends
// maintenance schemes.
type Advisor struct {
	m  *Manager
	mu sync.Mutex
	// per index name
	updates map[string]int64
	reads   map[string]int64
}

// NewAdvisor creates an advisor attached to the manager; from then on the
// manager reports each index update and index read to it.
func (m *Manager) NewAdvisor() *Advisor {
	a := &Advisor{m: m, updates: make(map[string]int64), reads: make(map[string]int64)}
	m.advisor.Store(a)
	return a
}

func (a *Advisor) noteUpdate(indexName string) {
	a.mu.Lock()
	a.updates[indexName]++
	a.mu.Unlock()
}

func (a *Advisor) noteRead(indexName string) {
	a.mu.Lock()
	a.reads[indexName]++
	a.mu.Unlock()
}

// Observed returns the op counts recorded for an index.
func (a *Advisor) Observed(table string, columns ...string) (updates, reads int64) {
	def := IndexDef{Table: table, Columns: columns}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates[def.Name()], a.reads[def.Name()]
}

// Recommend applies the paper's principles to the declared requirements and
// the observed read/write ratio:
//
//	(1) use sync-full or sync-insert when consistency is needed;
//	(2) use sync-full when read latency is critical;
//	(3) use sync-insert when update latency is critical;
//	(4) use async-simple or async-session when consistency is not a concern;
//	(5) use async-session when read-your-write semantics is needed.
func (a *Advisor) Recommend(table string, columns []string, req Requirements) Recommendation {
	def := IndexDef{Table: table, Columns: columns}
	a.mu.Lock()
	updates, reads := a.updates[def.Name()], a.reads[def.Name()]
	a.mu.Unlock()

	rec := Recommendation{Updates: updates, Reads: reads}
	switch {
	case req.NeedConsistency && req.ReadLatencyCritical:
		rec.Scheme, rec.Rationale = SyncFull, "consistency needed and read latency critical (principles 1+2)"
	case req.NeedConsistency && req.UpdateLatencyCritical:
		rec.Scheme, rec.Rationale = SyncInsert, "consistency needed and update latency critical (principles 1+3)"
	case req.NeedConsistency:
		// Neither latency marked critical: let the observed ratio decide.
		if updates > reads {
			rec.Scheme, rec.Rationale = SyncInsert, "consistency needed; observed write-heavy workload favors cheap updates (principles 1+3)"
		} else {
			rec.Scheme, rec.Rationale = SyncFull, "consistency needed; observed read-heavy workload favors cheap reads (principles 1+2)"
		}
	case req.NeedReadYourWrites:
		rec.Scheme, rec.Rationale = AsyncSession, "read-your-writes suffices (principle 5)"
	default:
		rec.Scheme, rec.Rationale = AsyncSimple, "consistency not a concern (principle 4)"
	}
	return rec
}

// Apply recommends and immediately applies the scheme for an index.
func (a *Advisor) Apply(cl *cluster.Client, table string, columns []string, req Requirements) (Recommendation, error) {
	rec := a.Recommend(table, columns, req)
	if err := a.m.SetScheme(cl, table, columns, rec.Scheme); err != nil {
		return rec, err
	}
	return rec, nil
}
