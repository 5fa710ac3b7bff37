package diffindex

// The change-data-capture surface of the retained log (DESIGN.md §13): the
// WAL is not just a recovery artifact but a consumable record of every
// committed mutation. Changes opens a feed that tails each region's log
// through retention-pinning cursors, so a live consumer can never have
// needed segments truncated out from under it; WALRetainSegments
// additionally bounds how much history a NOT-yet-opened consumer can still
// reach.

import (
	"fmt"
	"sync"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/metrics"
	"diffindex/internal/wal"
)

// ErrHistoryTrimmed is returned by the as-of read methods when the version
// visible at the requested timestamp may have been garbage-collected by
// MaxVersions retention — "absent at ts" cannot be distinguished from
// "history gone", so the read refuses to guess.
var ErrHistoryTrimmed = lsm.ErrHistoryTrimmed

// LogPos is a durable, resumable position in one region's write-ahead log:
// a segment number plus a frame-aligned byte offset. The zero LogPos is the
// start of the retained log.
type LogPos struct {
	Segment uint64
	Offset  int64
}

// String renders the position as "segment@offset".
func (p LogPos) String() string { return wal.Pos{Seg: p.Segment, Off: p.Offset}.String() }

// ChangeRecord is one committed base-table mutation as recorded in a
// region's WAL: one column of one row, with the position the record was
// read from (resume point) and whether it was a delete.
type ChangeRecord struct {
	Table  string
	Region string
	Row    []byte
	Column string
	Value  []byte // nil for deletes
	Ts     int64
	Delete bool
	Pos    LogPos
}

// cdcReadBatch bounds one cursor read; cdcPollInterval is the idle pause
// when a region's cursor is caught up with the durable tail; cdcBuffer
// bounds a feed's in-memory buffer — the pumps stop reading the WAL when the
// consumer falls that many records behind, bounding memory while the
// retention pin bounds how much log a paused consumer can hold.
const (
	cdcReadBatch    = 256
	cdcPollInterval = 2 * time.Millisecond
	cdcBuffer       = 1024
)

// ChangeFeed streams a table's committed mutations. One pump goroutine per
// region tails that region's WAL through a retention-pinning cursor and
// delivers records into Events in per-region log order (no ordering is
// imposed ACROSS regions — like per-partition ordering in Kafka). The
// Events channel is bounded by cdcBuffer records: a slow consumer stalls the
// pumps, which stop reading the WAL, and the cursor pins keep the unread
// segments from being truncated. The channel closes when the feed stops
// (Close, or a pump error — check Err then).
type ChangeFeed struct {
	db    *DB
	table string
	ch    chan ChangeRecord
	done  chan struct{}
	stop  sync.Once
	wg    sync.WaitGroup

	mu        sync.Mutex
	positions map[string]LogPos
	lag       map[string]uint64
	gaps      map[string]int
	err       error
}

// Changes opens a change feed over the table's full retained log history:
// every committed mutation still present in the regions' WALs, then live
// tailing. With WALRetainSegments = -1 that is the table's complete
// mutation history; with finite retention, check GapSegments for history
// truncated before the feed started. The feed covers the table's regions as
// of this call; regions created by later splits are not tracked.
func (db *DB) Changes(table string) (*ChangeFeed, error) {
	return db.ChangesFrom(table, nil)
}

// ChangesFrom resumes a change feed from per-region positions previously
// returned by Positions — exactly-once delivery across restarts is the
// consumer's: records re-read from a resumed position carry the same Pos,
// so consumers deduplicate on (Region, Pos).
func (db *DB) ChangesFrom(table string, from map[string]LogPos) (*ChangeFeed, error) {
	regions, err := db.c.Master.RegionsOf(table)
	if err != nil {
		return nil, err
	}
	feed := &ChangeFeed{
		db:        db,
		table:     table,
		ch:        make(chan ChangeRecord, cdcBuffer),
		done:      make(chan struct{}),
		positions: make(map[string]LogPos, len(regions)),
		lag:       make(map[string]uint64, len(regions)),
		gaps:      make(map[string]int, len(regions)),
	}
	type pump struct {
		ri  cluster.RegionInfo
		cur *wal.Cursor
	}
	var pumps []pump
	for _, ri := range regions {
		s := db.c.Server(ri.Server)
		if s == nil || s.Crashed() {
			for _, p := range pumps {
				p.cur.Close()
			}
			return nil, fmt.Errorf("diffindex: changes(%s): server %s for region %s is down", table, ri.Server, ri.ID)
		}
		start := from[ri.ID]
		cur, err := s.WALCursor(ri.ID, wal.Pos{Seg: start.Segment, Off: start.Offset})
		if err != nil {
			for _, p := range pumps {
				p.cur.Close()
			}
			return nil, err
		}
		feed.positions[ri.ID] = start
		pumps = append(pumps, pump{ri: ri, cur: cur})
	}
	db.registerFeed(feed)
	for _, p := range pumps {
		feed.wg.Add(1)
		go feed.pump(p.ri, p.cur)
	}
	// Close the channel once every pump has exited, so consumers ranging
	// over Events terminate on Close and on pump failure alike.
	go func() {
		feed.wg.Wait()
		close(feed.ch)
		db.unregisterFeed(feed)
	}()
	return feed, nil
}

// Events is the stream of committed mutations. It closes when the feed
// stops; check Err afterwards.
func (f *ChangeFeed) Events() <-chan ChangeRecord { return f.ch }

// Positions returns the per-region resume positions reached so far. A
// position never runs ahead of what has been handed to Events, and is
// published after its batch, so it can trail the last records received:
// Close the feed and drain Events before resuming for positions that cover
// everything delivered, or deduplicate on (Region, Pos).
func (f *ChangeFeed) Positions() map[string]LogPos {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]LogPos, len(f.positions))
	for id, p := range f.positions {
		out[id] = p
	}
	return out
}

// GapSegments returns how many WAL segments were truncated away below the
// feed's starting positions — non-zero means history was lost before the
// feed attached and the consumer must re-bootstrap (e.g. from a table scan).
func (f *ChangeFeed) GapSegments() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, g := range f.gaps {
		total += g
	}
	return total
}

// LagSegments returns the worst per-region segment lag between the feed and
// the active log tail — the diffindex_cdc_lag_segments gauge per feed.
func (f *ChangeFeed) LagSegments() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var max uint64
	for _, l := range f.lag {
		if l > max {
			max = l
		}
	}
	return int64(max)
}

// Err returns the error that stopped the feed, if any. Meaningful once
// Events has closed.
func (f *ChangeFeed) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Close stops the feed and releases its retention pins. The Events channel
// closes once the pumps have drained; records already buffered are still
// delivered to a consumer that keeps reading.
func (f *ChangeFeed) Close() {
	f.stop.Do(func() { close(f.done) })
}

func (f *ChangeFeed) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.stop.Do(func() { close(f.done) })
}

// pump tails one region's WAL into the feed channel. It owns the cursor
// exclusively (cursors are not concurrency-safe) and releases its retention
// pin on exit.
func (f *ChangeFeed) pump(ri cluster.RegionInfo, cur *wal.Cursor) {
	defer f.wg.Done()
	defer cur.Close()
	reg := f.db.c.Metrics()
	recs := reg.Counter("diffindex_cdc_records_total", metrics.L("table", f.table))
	bytes := reg.Counter("diffindex_cdc_bytes_total", metrics.L("table", f.table))
	for {
		select {
		case <-f.done:
			return
		default:
		}
		entries, err := cur.Next(cdcReadBatch)
		if err != nil {
			f.fail(fmt.Errorf("diffindex: changes(%s) region %s: %w", f.table, ri.ID, err))
			return
		}
		for _, e := range entries {
			if kv.IsLocalIndexKey(e.Record.Key) {
				continue // co-located index entries are derived state, not changes
			}
			row, col, err := kv.SplitBaseKey(e.Record.Key)
			if err != nil {
				f.fail(fmt.Errorf("diffindex: changes(%s) region %s at %s: %w", f.table, ri.ID, e.Pos, err))
				return
			}
			rec := ChangeRecord{
				Table:  f.table,
				Region: ri.ID,
				Row:    row,
				Column: string(col),
				Value:  e.Record.Value,
				Ts:     e.Record.Ts,
				Delete: e.Record.Kind == kv.KindDelete,
				Pos:    LogPos{Segment: e.Pos.Seg, Offset: e.Pos.Off},
			}
			// Count at hand-off, before the send, so a consumer holding N
			// records never reads a counter below N. A send aborted by Close
			// leaves the counter one ahead of a feed nobody reads any more.
			recs.Inc()
			bytes.Add(int64(len(e.Record.Key) + len(e.Record.Value)))
			select {
			case f.ch <- rec:
			case <-f.done:
				return
			}
		}
		pos := cur.Pos()
		f.mu.Lock()
		f.positions[ri.ID] = LogPos{Segment: pos.Seg, Offset: pos.Off}
		f.lag[ri.ID] = cur.Lag()
		f.gaps[ri.ID] = cur.GapSegments()
		f.mu.Unlock()
		if len(entries) == 0 {
			select {
			case <-f.done:
				return
			case <-time.After(cdcPollInterval):
			}
		}
	}
}

func (db *DB) registerFeed(f *ChangeFeed) {
	db.cdcMu.Lock()
	db.cdcFeeds[f] = struct{}{}
	db.cdcMu.Unlock()
	db.cdcGauge.Do(func() {
		db.c.Metrics().RegisterGaugeFunc("diffindex_cdc_lag_segments", func() int64 {
			db.cdcMu.Lock()
			defer db.cdcMu.Unlock()
			var max int64
			for f := range db.cdcFeeds {
				if l := f.LagSegments(); l > max {
					max = l
				}
			}
			return max
		})
	})
}

func (db *DB) unregisterFeed(f *ChangeFeed) {
	db.cdcMu.Lock()
	delete(db.cdcFeeds, f)
	db.cdcMu.Unlock()
}
