package lsm

// As-of surface of the store (DESIGN.md §13): GetAsOf, the point-in-time
// read that can tell "absent at ts" from "history trimmed" (as-of scans are
// Scan with a timestamp).

import (
	"bytes"
	"errors"
	"time"

	"diffindex/internal/kv"
)

// ErrHistoryTrimmed reports that a point-in-time read cannot be answered
// faithfully: the version visible at the requested timestamp has (or may
// have) been garbage-collected by compaction's MaxVersions retention. It
// fires whenever at least MaxVersions versions of the key newer than the
// requested timestamp survive, whether or not an older version is found
// below them: a compaction round that merged only newer tables may have
// trimmed the version that was visible at the timestamp while an older
// table still holds one from before it. The refusal is conservative — an
// untrimmed history that deep is refused too — so callers needing exact
// history must retain it by raising MaxVersions. Reads at kv.MaxTimestamp
// can never return this error.
var ErrHistoryTrimmed = errors.New("lsm: requested version trimmed by MaxVersions retention")

// GetAsOf returns the value of key as it stood at timestamp ts: the newest
// non-tombstone version with Ts ≤ ts. ok is false when the key did not
// exist at ts (never written yet, or deleted). It returns ErrHistoryTrimmed
// when the as-of version may have been compacted away (see the error's
// contract). GetAsOf(key, kv.MaxTimestamp) behaves exactly like Get.
func (s *Store) GetAsOf(key []byte, ts kv.Timestamp) (kv.Cell, bool, error) {
	start := time.Now()
	defer func() { s.stageGet.RecordDuration(time.Since(start)) }()
	mems, tables, release, err := s.components()
	if err != nil {
		return kv.Cell{}, false, err
	}
	defer release()

	merged := mergeOf(mems, tables, func(h *tableHandle) bool { return h.r.MayContainKey(key) })
	// Seek to the key's newest version and count the versions newer than ts
	// (the trimmed-history detector needs the count); the iterator then
	// sits on the first version at or below ts, if any.
	merged.Seek(kv.SeekKey(key, kv.MaxTimestamp))
	newer := 0
	for ; merged.Valid() && bytes.Equal(merged.Cell().Key, key) && merged.Cell().Ts > ts; merged.Next() {
		newer++
	}
	if err := merged.Err(); err != nil {
		return kv.Cell{}, false, err
	}
	if ts < kv.MaxTimestamp && newer >= s.opts.MaxVersions {
		return kv.Cell{}, false, ErrHistoryTrimmed
	}
	if !merged.Valid() {
		return kv.Cell{}, false, nil
	}
	// Newest version ≤ ts decides the read; a tombstone means the key was
	// deleted as of ts (a definitive answer, not trimmed history).
	c := merged.Cell()
	if !bytes.Equal(c.Key, key) || c.Tombstone() {
		return kv.Cell{}, false, nil
	}
	return c.Clone(), true, nil
}

// ActiveWALSegment returns the WAL's active segment number, which moves
// when a flush or a failed append rolls the log.
func (s *Store) ActiveWALSegment() uint64 {
	return s.log.ActiveSegment()
}
