package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
)

// ErrSessionExpired is returned when a session has been inactive longer
// than the configured limit or was explicitly ended; the application should
// start a new session (§5.2).
var ErrSessionExpired = errors.New("core: session expired")

var sessionCounter atomic.Int64

// Session provides session consistency (read-your-writes) on top of
// asynchronously maintained indexes (§5.2, scheme async-session). The
// client library tracks a private, in-memory set of index entries and
// delete markers generated from this session's own writes, and merges them
// into every index read. Sessions expire after inactivity, and session
// consistency automatically degrades to plain eventual consistency when the
// private tables outgrow their memory cap.
type Session struct {
	m  *Manager
	cl *cluster.Client
	id string

	mu         sync.Mutex
	private    map[string]map[string]privEntry // index name → index key → entry
	bytes      int64
	degraded   bool
	lastActive time.Time
	ended      bool
}

type privEntry struct {
	ts      kv.Timestamp
	deleted bool
}

// NewSession opens a session bound to a client (get_session() in §5.2).
func (m *Manager) NewSession(cl *cluster.Client) *Session {
	return &Session{
		m:          m,
		cl:         cl,
		id:         fmt.Sprintf("session-%d", sessionCounter.Add(1)),
		private:    make(map[string]map[string]privEntry),
		lastActive: time.Now(),
	}
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Degraded reports whether session consistency has been disabled because
// the private tables exceeded the memory cap.
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// touch validates liveness and refreshes the inactivity timer. Callers hold
// s.mu.
func (s *Session) touch() error {
	if s.ended || time.Since(s.lastActive) > s.m.opts.SessionTTL {
		s.ended = true
		s.private = nil
		return ErrSessionExpired
	}
	s.lastActive = time.Now()
	return nil
}

// record tracks one private index entry, accounting memory and degrading
// the session when the cap is exceeded (§5.2: "automatically disable
// session-consistency when out-of-memory is to occur").
func (s *Session) record(indexName, key string, e privEntry) {
	if s.degraded {
		return
	}
	tbl, ok := s.private[indexName]
	if !ok {
		tbl = make(map[string]privEntry)
		s.private[indexName] = tbl
	}
	if _, existed := tbl[key]; !existed {
		s.bytes += int64(len(key)) + 16
	}
	tbl[key] = e
	if s.bytes > s.m.opts.SessionMaxBytes {
		s.degraded = true
		s.private = make(map[string]map[string]privEntry)
		s.bytes = 0
	}
}

// Put writes a row within the session (§5.2).
func (s *Session) Put(table string, row []byte, cols map[string][]byte) (kv.Timestamp, error) {
	return s.mutate(table, row, cluster.Mutation{Put: cols})
}

// Delete removes row columns within the session (all columns when cols is
// nil).
func (s *Session) Delete(table string, row []byte, cols []string) (kv.Timestamp, error) {
	return s.mutate(table, row, cluster.Mutation{Del: cols, DelRow: cols == nil})
}

// mutate applies one row mutation that also requests the old values back,
// from which the library generates private delete markers and new index
// entries (§5.2): the same index cells the APS will write, computed from
// the pre-image the server read under the row lock, in the same RPC.
func (s *Session) mutate(table string, row []byte, m cluster.Mutation) (kv.Timestamp, error) {
	s.mu.Lock()
	if err := s.touch(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	degraded := s.degraded
	s.mu.Unlock()

	ts, old, err := s.cl.Mutate(table, row, m, !degraded)
	if err != nil || degraded {
		return ts, err
	}
	t := task{row: row, ts: ts, putCols: m.Put, delCols: m.Del}
	if m.DelRow { // the server deleted the columns it read
		t.delCols = nil
		for c := range old {
			if _, put := m.Put[c]; !put {
				t.delCols = append(t.delCols, c)
			}
		}
	}
	var defs []IndexDef
	for _, def := range s.m.catalog.IndexesOn(table) {
		if !def.Local && def.Scheme.Asynchronous() && covered(def, t) {
			defs = append(defs, def)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, cells := range indexMutationsFrom(t, defs, old).global {
		for _, c := range cells {
			s.record(name, string(c.Key), privEntry{ts: c.Ts, deleted: c.Kind == kv.KindDelete})
		}
	}
	return ts, nil
}

// GetByIndex is the session-consistent getFromIndex (§5.2): the regular
// index read merged with the session's private entries, guaranteeing the
// caller sees its own writes even before the APS has applied them.
func (s *Session) GetByIndex(table string, columns []string, value []byte) ([]IndexHit, error) {
	if def, ok := s.m.catalog.Find(table, columns...); ok && def.Local {
		// Local indexes are maintained synchronously inside the row's
		// region, so plain reads already satisfy read-your-writes.
		s.mu.Lock()
		err := s.touch()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return s.m.GetByIndex(s.cl, table, columns, value)
	}
	prefix := kv.IndexValuePrefix(value)
	return s.getMerged(table, columns, prefix, kv.PrefixSuccessor(prefix), func(v []byte) bool {
		return bytes.Equal(v, value)
	})
}

// RangeByIndex is the session-consistent range lookup: low ≤ v ≤ high.
func (s *Session) RangeByIndex(table string, columns []string, low, high []byte, limit int) ([]IndexHit, error) {
	if def, ok := s.m.catalog.Find(table, columns...); ok && def.Local {
		s.mu.Lock()
		err := s.touch()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return s.m.RangeByIndex(s.cl, table, columns, low, high, limit)
	}
	lo, hi := kv.IndexValueRange(low, high)
	hits, err := s.getMerged(table, columns, lo, hi, func(v []byte) bool {
		return bytes.Compare(v, low) >= 0 && (high == nil || bytes.Compare(v, high) <= 0)
	})
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits, nil
}

func (s *Session) getMerged(table string, columns []string, lo, hi []byte, valueMatch func([]byte) bool) ([]IndexHit, error) {
	s.mu.Lock()
	if err := s.touch(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Unlock()

	def, ok := s.m.catalog.Find(table, columns...)
	if !ok {
		return nil, fmt.Errorf("core: no index on %s(%v)", table, columns)
	}
	tr := s.m.cluster.Tracer().Start("index-get", table)
	defer s.m.cluster.Tracer().Finish(tr)
	hits, err := s.m.readIndex(s.cl, def, lo, hi, 0, tr)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded {
		return hits, nil
	}
	priv := s.private[def.Name()]
	if len(priv) == 0 {
		return hits, nil
	}

	// Drop server hits superseded by a private delete marker.
	merged := hits[:0]
	seen := make(map[string]bool, len(hits))
	for _, h := range hits {
		// Reconstruct the hit's index key to match private entries.
		key := string(indexKeyForHit(def, lo, hi, h, priv))
		if key != "" {
			if e, ok := priv[key]; ok && e.deleted && e.ts >= h.Ts {
				continue
			}
			seen[key] = true
		}
		merged = append(merged, h)
	}
	// Add private puts the server has not applied yet.
	for key, e := range priv {
		if e.deleted || seen[key] {
			continue
		}
		val, row, err := kv.SplitIndexKey([]byte(key))
		if err != nil || !valueMatch(val) {
			continue
		}
		merged = append(merged, IndexHit{Row: append([]byte(nil), row...), Ts: e.ts})
	}
	sort.Slice(merged, func(i, j int) bool { return bytes.Compare(merged[i].Row, merged[j].Row) < 0 })
	return merged, nil
}

// indexKeyForHit finds the private-table key corresponding to a server hit.
// Exact-match lookups know the value (lo is its prefix); range lookups must
// search the private entries for the row.
func indexKeyForHit(def IndexDef, lo, hi []byte, h IndexHit, priv map[string]privEntry) []byte {
	for key := range priv {
		_, row, err := kv.SplitIndexKey([]byte(key))
		if err == nil && bytes.Equal(row, h.Row) {
			k := []byte(key)
			if bytes.Compare(k, lo) >= 0 && (hi == nil || bytes.Compare(k, hi) < 0) {
				return k
			}
		}
	}
	return nil
}

// End terminates the session and garbage-collects its private tables
// (end_session() in §5.2).
func (s *Session) End() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ended = true
	s.private = nil
	s.bytes = 0
}
