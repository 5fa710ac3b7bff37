package lsm

// Retained-log surface of the store (DESIGN.md §13): GetAsOf, the
// point-in-time read that can tell "absent at ts" from "history trimmed"
// (as-of scans are Scan with a timestamp), and the WAL tail API the CDC
// feed builds on.

import (
	"bytes"
	"errors"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/wal"
)

// ErrHistoryTrimmed reports that a point-in-time read cannot be answered
// faithfully: the version visible at the requested timestamp has (or may
// have) been garbage-collected by compaction's MaxVersions retention. The
// detection is conservative: it fires only when nothing is visible at the
// requested timestamp AND at least MaxVersions newer versions of the key
// survive — the signature of a trimmed tail. A key genuinely born after the
// timestamp with that many newer versions is indistinguishable from a
// trimmed one, so callers needing exact history must retain it (raise
// MaxVersions, or read from the log via TailWAL). Reads at kv.MaxTimestamp
// can never return this error.
var ErrHistoryTrimmed = errors.New("lsm: requested version trimmed by MaxVersions retention")

// GetAsOf returns the value of key as it stood at timestamp ts: the newest
// non-tombstone version with Ts ≤ ts. ok is false when the key did not
// exist at ts (never written yet, or deleted). It returns ErrHistoryTrimmed
// when the as-of version may have been compacted away (see the error's
// contract). GetAsOf(key, kv.MaxTimestamp) behaves exactly like Get.
func (s *Store) GetAsOf(key []byte, ts kv.Timestamp) (kv.Cell, bool, error) {
	s.stats.gets.Add(1)
	if s.stageGet != nil {
		start := time.Now()
		defer func() { s.stageGet.RecordDuration(time.Since(start)) }()
	}
	mems, tables, release, err := s.components()
	if err != nil {
		return kv.Cell{}, false, err
	}
	defer release()

	iters := make([]internalIterator, 0, len(mems)+len(tables))
	for _, m := range mems {
		iters = append(iters, m.Iterator())
	}
	for _, h := range tables {
		if !h.r.MayContainKey(key) {
			continue
		}
		iters = append(iters, h.r.Iterator())
	}
	merged := newMergeIterator(iters)
	// Seek to the key's newest version so every version newer than ts is
	// observed (the trimmed-history detector needs the count), then take
	// the first version at or below ts.
	merged.Seek(kv.SeekKey(key, kv.MaxTimestamp))

	newer := 0
	for ; merged.Valid(); merged.Next() {
		c := merged.Cell()
		if !bytes.Equal(c.Key, key) {
			break
		}
		if c.Ts > ts {
			newer++
			continue
		}
		// Newest version ≤ ts decides the read; a tombstone means the key
		// was deleted as of ts (a definitive answer, not trimmed history).
		if err := merged.Err(); err != nil {
			return kv.Cell{}, false, err
		}
		if c.Tombstone() {
			return kv.Cell{}, false, nil
		}
		return c.Clone(), true, nil
	}
	if err := merged.Err(); err != nil {
		return kv.Cell{}, false, err
	}
	if ts < kv.MaxTimestamp && newer >= s.opts.MaxVersions {
		return kv.Cell{}, false, ErrHistoryTrimmed
	}
	return kv.Cell{}, false, nil
}

// TailWAL reads committed data records forward from a resumable position
// (the zero wal.Pos starts at the oldest retained history). See
// wal.Log.TailLog for the gap and position contract.
func (s *Store) TailWAL(from wal.Pos, max int) ([]wal.Entry, wal.Pos, int, error) {
	return s.log.TailLog(from, max)
}

// WALCursor opens a retention-pinning cursor over the store's committed
// records — the primitive a CDC consumer holds. The caller must Close it to
// release the truncation pin.
func (s *Store) WALCursor(from wal.Pos) *wal.Cursor {
	return s.log.NewCursor(from)
}

// ActiveWALSegment returns the WAL's active segment number — the reference
// point for a consumer's segment lag.
func (s *Store) ActiveWALSegment() uint64 {
	return s.log.ActiveSegment()
}
