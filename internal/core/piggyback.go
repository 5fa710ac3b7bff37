package core

import (
	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

// PostCompact implements the Coprocessor hook: the compaction enumerator of
// the reconcile engine. It runs in the compaction goroutine of the base
// region's store, after the round installed its output. When a round
// garbage-collects old cell versions, each dropped put value is exactly the
// kind of value a stale index entry would still point to, so the entries
// those values name are re-checked — Algorithm 2 applied to the set the
// merge already paid to read — instead of waiting for a read or a sweep.
//
// Only sync-insert leaves stale entries behind; every other scheme deleted
// the superseded entry when the base cell was overwritten. And only global
// single-column indexes are derivable from a dropped cell: a composite
// entry's old value needs the row's other columns at the same old
// timestamp, which the merge no longer has; local entries live in this same
// store and were GC'd by the same round.
func (o *observer) PostCompact(ctx cluster.RegionCtx, gc lsm.CompactionGC) {
	for _, def := range o.m.catalog.IndexesOn(ctx.Region.Info.Table) {
		if def.Scheme != SyncInsert || def.Local || len(def.Columns) != 1 {
			continue
		}
		// Several dropped versions of one value name the same entry.
		seen := make(map[string]bool)
		var cands []IndexEntryPair
		for _, c := range gc.Dropped {
			if c.Kind != kv.KindPut || len(c.Value) == 0 {
				continue
			}
			row, col, err := kv.SplitBaseKey(c.Key)
			if err != nil || string(col) != def.Columns[0] {
				continue // a local-index entry or another column
			}
			if k := string(kv.IndexKey(c.Value, row)); !seen[k] {
				seen[k] = true
				// Zero ts: the dropped cell's timestamp need not be the
				// entry's, so the engine reads the entry's own.
				cands = append(cands, IndexEntryPair{Value: c.Value, Row: row})
			}
		}
		// Best effort: a failed repair (store closing mid-round, index
		// region unreachable) leaves the stale entry for read repair or the
		// next round, never breaks anything.
		_, _ = o.m.reconcile(o.m.clientFor(ctx.Server.ID()), def, srcCompaction, cands, nil)
	}
}
