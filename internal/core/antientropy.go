package core

import (
	"fmt"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
)

// Anti-entropy index verification: the background check that a global index
// actually delivers the contract its scheme promises. Diff-Index's schemes
// bound WHERE divergence can appear — sync-full leaves none, sync-insert
// leaves only stale entries (repaired lazily on read), async schemes leave a
// convergence window (§6.1) — but bugs, lost queues or disk corruption can
// breach those bounds silently: an index read simply misses rows. The sweep
// compares the index against the base table wholesale and classifies every
// divergence against the §6.1 contracts:
//
//   - a base row whose expected entry is absent from the index breaks
//     index-complete (reads silently miss the row) — "missing";
//   - an index entry no base row justifies breaks index-exact (reads return
//     phantom rows, modulo the double-check of sync-insert) — "stale".
//
// The comparison is digest-first (see cluster's hash-bucket protocol): only
// buckets whose base-side and index-side digests differ are enumerated
// pair-by-pair, so a healthy index costs two digest scans and no enumeration.
// Because the two sides are scanned without a common snapshot, in-flight
// writes and queued async updates can masquerade as divergence; every
// candidate is therefore re-verified with point reads before it is counted
// or repaired, and candidates that re-verify clean are reported as transient.

// VerifyBuckets is the digest-vector width used by VerifyIndexes. More
// buckets localize divergence better (fewer pairs enumerated per divergent
// bucket); fewer buckets shrink the digest exchange.
const VerifyBuckets = 64

// IndexVerifyReport summarizes one index's anti-entropy sweep.
type IndexVerifyReport struct {
	Table string
	Index string
	// Scheme is the index's maintenance scheme.
	Scheme Scheme
	// Buckets is the digest-vector width; DivergentBuckets how many buckets
	// differed between the base side and the index side.
	Buckets          int
	DivergentBuckets int
	// PairsCompared counts the (value, row) pairs enumerated from the
	// divergent buckets, both sides combined.
	PairsCompared int
	// Missing / Stale are CONFIRMED violations: expected entries absent from
	// the index (index-complete breach) and index entries without a matching
	// base row (index-exact breach).
	Missing int
	Stale   int
	// Transient counts candidates that re-verified clean — in-flight or
	// queued-async updates caught mid-propagation, not violations.
	Transient int
	// Repaired counts violations fixed this sweep (missing entries inserted,
	// stale entries deleted, at the timestamps reconcile's §4.3 rule gives).
	Repaired int
}

// Healthy reports whether the sweep confirmed zero violations.
func (r IndexVerifyReport) Healthy() bool { return r.Missing == 0 && r.Stale == 0 }

func (r IndexVerifyReport) String() string {
	return fmt.Sprintf("%s[%s]: buckets %d/%d divergent, %d pairs, %d missing, %d stale, %d transient, %d repaired",
		r.Index, r.Scheme, r.DivergentBuckets, r.Buckets, r.PairsCompared, r.Missing, r.Stale, r.Transient, r.Repaired)
}

// VerifyIndexes runs one anti-entropy sweep over every GLOBAL index of a
// table, repairing confirmed violations through the reconcile engine. Local
// indexes are skipped: their entries live in the same region as their rows
// and are maintained inside the row's write, so there is no cross-table
// state to diverge.
func (m *Manager) VerifyIndexes(cl *cluster.Client, table string) ([]IndexVerifyReport, error) {
	var reports []IndexVerifyReport
	for _, def := range m.catalog.IndexesOn(table) {
		if def.Local {
			continue
		}
		rep, err := m.verifyIndex(cl, def)
		if err != nil {
			return reports, fmt.Errorf("core: verify %s: %w", def.Name(), err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func (m *Manager) verifyIndex(cl *cluster.Client, def IndexDef) (IndexVerifyReport, error) {
	rep := IndexVerifyReport{Table: def.Table, Index: def.Name(), Scheme: def.Scheme, Buckets: VerifyBuckets}
	m.reg.Counter("diffindex_antientropy_sweeps_total", metrics.L("table", def.Table)).Inc()

	// Phase 1: digest exchange. One scan of each side, fixed-size result.
	baseDig, err := cl.BaseTableIndexDigest(def.Table, def.Columns, VerifyBuckets, kv.MaxTimestamp)
	if err != nil {
		return rep, err
	}
	idxDig, err := cl.IndexTableDigest(def.Name(), VerifyBuckets, kv.MaxTimestamp)
	if err != nil {
		return rep, err
	}
	var divergent []int
	for i := range baseDig {
		if baseDig[i] != idxDig[i] {
			divergent = append(divergent, i)
		}
	}
	rep.DivergentBuckets = len(divergent)
	m.reg.Counter("diffindex_antientropy_buckets_total", metrics.L("result", "clean")).Add(int64(VerifyBuckets - len(divergent)))
	m.reg.Counter("diffindex_antientropy_buckets_total", metrics.L("result", "divergent")).Add(int64(len(divergent)))
	if len(divergent) == 0 {
		return rep, nil
	}

	// Phase 2: enumerate ONLY the divergent buckets and diff the pair sets.
	basePairs, err := cl.BaseTableBucketEntries(def.Table, def.Columns, VerifyBuckets, divergent, kv.MaxTimestamp)
	if err != nil {
		return rep, err
	}
	idxPairs, err := cl.IndexTableBucketEntries(def.Name(), VerifyBuckets, divergent, kv.MaxTimestamp)
	if err != nil {
		return rep, err
	}
	rep.PairsCompared = len(basePairs) + len(idxPairs)
	inBase := make(map[string]bool, len(basePairs))
	for _, p := range basePairs {
		inBase[string(kv.IndexKey(p.Value, p.Row))] = true
	}
	inIndex := make(map[string]bool, len(idxPairs))
	var stale, missing []cluster.IndexEntryPair
	for _, p := range idxPairs {
		k := string(kv.IndexKey(p.Value, p.Row))
		inIndex[k] = true
		if !inBase[k] {
			stale = append(stale, p)
		}
	}
	for _, p := range basePairs {
		if !inIndex[string(kv.IndexKey(p.Value, p.Row))] {
			missing = append(missing, p)
		}
	}

	// Phase 3: re-verify and repair. The two enumeration scans above are
	// not a snapshot, so a write racing the sweep shows up as a candidate;
	// the reconcile engine's point reads see the current state, report those
	// as transient, and repair only what they confirm.
	res, err := m.reconcile(cl, def, srcVerify, stale, missing)
	rep.Missing, rep.Stale, rep.Transient, rep.Repaired = res.Missing, res.Stale, res.Transient, res.Repaired
	return rep, err
}

// VerifyIndex runs the sweep for one index, by table and columns.
func (m *Manager) VerifyIndex(cl *cluster.Client, table string, columns ...string) (IndexVerifyReport, error) {
	def, ok := m.catalog.Find(table, columns...)
	if !ok {
		return IndexVerifyReport{}, fmt.Errorf("core: no index on %s(%v)", table, columns)
	}
	if def.Local {
		return IndexVerifyReport{}, fmt.Errorf("core: %s is a local index; anti-entropy applies to global indexes", def.Name())
	}
	return m.verifyIndex(cl, def)
}
