package wal

import (
	"errors"
	"fmt"
	"sort"

	"diffindex/internal/vfs"
)

// Entry is a committed data record paired with its durable log position.
type Entry struct {
	Pos    Pos
	Record Record
}

// TailLog reads forward from a previously returned position, delivering up
// to max committed data records (meta records are skipped but advance the
// position). It returns the entries, the position to resume from, and the
// number of log segments that were truncated away underneath the given
// position — a non-zero gap means the consumer lost history and must
// re-bootstrap (e.g. from a base-table scan).
//
// Positions must be frame-aligned: the zero Pos (start of the log) and any
// Pos returned by TailLog or AppendBatchPos qualify. Tailing the active
// segment is safe — a half-visible frame fails its checksum and the
// position simply does not advance past it until the append completes.
// TailLog keeps working on a closed log (sealed files remain readable), so
// tooling can inspect a store post-shutdown.
func (l *Log) TailLog(from Pos, max int) ([]Entry, Pos, int, error) {
	if max <= 0 {
		max = 1 << 10
	}
	names, err := l.fs.List(l.dir + "/")
	if err != nil {
		return nil, from, 0, fmt.Errorf("wal: list: %w", err)
	}
	var ids []uint64
	for _, name := range names {
		if id, ok := parseSegmentID(l.dir, name); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	l.mu.Lock()
	active := l.segID
	l.mu.Unlock()

	pos := from
	gap := 0
	// Truncation removes only a prefix of the contiguous segment sequence,
	// so the one gap scenario is a position below the oldest survivor.
	// Segment IDs start at 1, so the zero Pos (log start) reaches the first
	// segment of a fresh log with no gap.
	if len(ids) > 0 && pos.Seg < ids[0] {
		start := pos.Seg
		if start == 0 {
			start = 1
		}
		if ids[0] > start {
			gap = int(ids[0] - start)
		}
		pos = Pos{Seg: ids[0]}
	}
	var out []Entry
	for _, id := range ids {
		if id < pos.Seg {
			continue
		}
		if id > pos.Seg {
			pos = Pos{Seg: id}
		}
		stop, err := l.tailSegment(id, &pos, &out, max, id < active)
		if err != nil {
			if errors.Is(err, vfs.ErrNotExist) {
				continue // truncated between List and Open; keep going
			}
			return out, pos, gap, err
		}
		if stop || len(out) >= max {
			return out, pos, gap, nil
		}
	}
	return out, pos, gap, nil
}

// tailSegment scans one segment from pos.Off, appending data entries and
// advancing pos. stop is true when the scan must not advance into later
// segments (an unfinished frame at the active segment's tail). sealed
// segments with a torn tail advance pos to the next segment: the tear is
// permanent and everything after it was never acknowledged.
func (l *Log) tailSegment(id uint64, pos *Pos, out *[]Entry, max int, sealed bool) (stop bool, err error) {
	f, err := l.fs.Open(segmentName(l.dir, id))
	if err != nil {
		return false, err
	}
	defer f.Close()
	// The size at open bounds this scan: frames appended to the active
	// segment meanwhile read as its tail and are picked up by the next call.
	size, err := f.Size()
	if err != nil {
		return false, err
	}
	for len(*out) < max {
		payload, next, ok, err := readFrame(f, pos.Off, size)
		if err != nil {
			return false, err
		}
		if !ok {
			if sealed {
				*pos = Pos{Seg: id + 1}
				return false, nil
			}
			return true, nil // active segment tail: wait for more appends
		}
		rec, decErr := decodePayload(payload)
		framePos := *pos
		pos.Off = next
		if decErr != nil || IsMeta(rec.Kind) {
			continue
		}
		*out = append(*out, Entry{Pos: framePos, Record: rec})
	}
	return false, nil
}
