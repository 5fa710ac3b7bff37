// Package wal implements the write-ahead log that makes memtable contents
// durable (§2.2): every put is appended to the log before it is applied to
// the memtable, and on a region-server failure the log is replayed to
// rebuild the memtable. The log is segmented so it can be "rolled forward"
// after a flush (§5.3): a flush starts a new segment, and once the flushed
// SSTable is durable every earlier segment is deleted. Diff-Index piggybacks
// on this exact mechanism — the drain-AUQ-before-flush rule makes the WAL
// act as the log for both the memtable and the asynchronous update queue.
//
// The log is for recovery only. It holds data records (puts and deletes)
// and nothing else, and recovery replays every segment that exists, in ID
// order. A segment a failed truncation left behind is replayed too: its
// cells are already in SSTables, and re-applying them adds identical
// versions the read path dedupes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// Record is one durable log entry: a versioned write to a region.
type Record struct {
	Key   []byte
	Value []byte
	Ts    kv.Timestamp
	Kind  kv.Kind
}

// Cell converts a data record to its cell form.
func (r Record) Cell() kv.Cell {
	return kv.Cell{Key: r.Key, Value: r.Value, Ts: r.Ts, Kind: r.Kind}
}

// Pos is a record's durable log position: its segment ID and byte offset.
type Pos struct {
	Seg uint64
	Off int64
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is a segmented write-ahead log rooted at a directory prefix inside a
// vfs.FS. It is safe for concurrent appends.
type Log struct {
	fs  vfs.FS
	dir string

	mu     sync.Mutex
	seg    vfs.File // active segment
	segID  uint64
	segOff int64 // bytes appended to the active segment
	closed bool
	// tainted marks the active segment as having a torn or unsynced tail
	// after a failed append: replay stops at the first bad record, so
	// further appends to the same segment could be silently lost. The next
	// append rolls to a fresh segment first (replay processes segments
	// independently, so records before the tear and in later segments
	// survive).
	tainted bool
	obs     func(recs, bytes int, d time.Duration)
}

// SetObserver installs a callback invoked after every durable append with the
// record count, encoded byte count, and the wall time of the write+sync. The
// LSM layer uses it to feed WAL metrics without the log depending on the
// metrics package. fn runs under the log's append lock, so it must be cheap
// and must not call back into the log.
func (l *Log) SetObserver(fn func(recs, bytes int, d time.Duration)) {
	l.mu.Lock()
	l.obs = fn
	l.mu.Unlock()
}

func segmentName(dir string, id uint64) string {
	return fmt.Sprintf("%s/%020d.wal", dir, id)
}

func parseSegmentID(dir, name string) (uint64, bool) {
	prefix := dir + "/"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	idStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".wal")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// segmentIDs lists the IDs of the segments under dir in ascending order,
// whatever order the file system lists them in.
func segmentIDs(fs vfs.FS, dir string) ([]uint64, error) {
	names, err := fs.List(dir + "/")
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var ids []uint64
	for _, name := range names {
		if id, ok := parseSegmentID(dir, name); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, nil
}

// ReplayConfig configures OpenWith.
type ReplayConfig struct {
	// Replay, when non-nil, receives every recovered data record, in log
	// order.
	Replay func(Record)
}

// Open replays every recoverable record under dir in log order, invoking
// replay for each intact data record, then opens a fresh active segment for
// appends. Replay stops at the first torn or corrupt record in a segment
// (data after a torn write was never acknowledged, so dropping it is
// correct). Every segment that exists is replayed, in ID order.
func Open(fs vfs.FS, dir string, replay func(Record)) (*Log, error) {
	return OpenWith(fs, dir, ReplayConfig{Replay: replay})
}

// OpenWith is Open with explicit replay configuration.
func OpenWith(fs vfs.FS, dir string, cfg ReplayConfig) (*Log, error) {
	ids, err := segmentIDs(fs, dir)
	if err != nil {
		return nil, err
	}
	var maxID uint64
	for _, id := range ids {
		if err := replaySegment(fs, segmentName(dir, id), cfg.Replay); err != nil {
			return nil, err
		}
		maxID = id
	}

	l := &Log{fs: fs, dir: dir, segID: maxID + 1}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) openSegment() error {
	f, err := l.fs.Create(segmentName(l.dir, l.segID))
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", segmentName(l.dir, l.segID), err)
	}
	l.seg = f
	l.segOff = 0
	l.tainted = false
	return nil
}

// appendRecord appends r's frame to dst.
//
// record layout: crc32c(uint32) · payloadLen(uint32) · payload
// payload: ts(int64) · kind(byte) · keyLen(uvarint) · key · valLen(uvarint) · value
func appendRecord(dst []byte, r Record) []byte {
	head := len(dst)
	dst = append(dst, make([]byte, 8)...) // the header, filled in below
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Ts))
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	payload := dst[head+8:]
	binary.LittleEndian.PutUint32(dst[head:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[head+4:], uint32(len(payload)))
	return dst
}

func decodePayload(payload []byte) (Record, error) {
	var r Record
	if len(payload) < 9 {
		return r, errors.New("wal: payload too short")
	}
	r.Ts = kv.Timestamp(binary.LittleEndian.Uint64(payload[:8]))
	r.Kind = kv.Kind(payload[8])
	if r.Kind != kv.KindPut && r.Kind != kv.KindDelete {
		return r, fmt.Errorf("wal: kind %d is not a data kind", r.Kind)
	}
	rest := payload[9:]
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest[n:])) < keyLen {
		return r, errors.New("wal: bad key length")
	}
	rest = rest[n:]
	r.Key = append([]byte(nil), rest[:keyLen]...)
	rest = rest[keyLen:]
	valLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest[n:])) < valLen {
		return r, errors.New("wal: bad value length")
	}
	rest = rest[n:]
	if valLen > 0 {
		r.Value = append([]byte(nil), rest[:valLen]...)
	}
	if len(rest[valLen:]) != 0 {
		return r, errors.New("wal: trailing bytes in payload")
	}
	return r, nil
}

// readFrame reads and CRC-verifies the frame at off in a segment of the
// given size. ok is false at a clean end, torn tail or checksum mismatch
// (replay stops there); err reports genuine I/O failures only. A header
// declaring a payload that runs past size is a torn tail — the length is
// checked before a buffer is sized from it, since a garbage header can
// declare 4 GiB.
func readFrame(f vfs.File, off, size int64) (payload []byte, next int64, ok bool, err error) {
	header := make([]byte, 8)
	if _, err := f.ReadAt(header, off); err != nil {
		if err == io.EOF {
			return nil, off, false, nil
		}
		return nil, off, false, fmt.Errorf("wal: read @%d: %w", off, err)
	}
	wantCRC := binary.LittleEndian.Uint32(header[0:4])
	payloadLen := binary.LittleEndian.Uint32(header[4:8])
	if off+8+int64(payloadLen) > size {
		return nil, off, false, nil
	}
	payload = make([]byte, payloadLen)
	if _, err := f.ReadAt(payload, off+8); err != nil {
		if err == io.EOF {
			return nil, off, false, nil
		}
		return nil, off, false, fmt.Errorf("wal: read @%d: %w", off+8, err)
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, off, false, nil
	}
	return payload, off + 8 + int64(payloadLen), true, nil
}

// replaySegment replays one segment's intact data records, stopping at the
// first torn or corrupt frame. A checksum-valid frame that does not decode
// to a put or a delete counts as corrupt.
func replaySegment(fs vfs.FS, name string, replay func(Record)) error {
	f, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("wal: size %s: %w", name, err)
	}

	var off int64
	for {
		payload, next, ok, err := readFrame(f, off, size)
		if err != nil {
			return fmt.Errorf("wal: %s: %w", name, err)
		}
		if !ok {
			return nil // clean end or torn/corrupt tail: stop
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return nil // checksum-valid but not a data record: stop
		}
		if replay != nil {
			replay(rec)
		}
		off = next
	}
}

// Append durably appends a record (the write is synced before returning, the
// durability point of a put in §2.2). It is a single-record AppendBatch;
// every append goes through the same group-commit path.
func (l *Log) Append(r Record) error {
	_, err := l.AppendBatchPos([]Record{r})
	return err
}

// AppendBatch appends several records with a single sync, amortizing the
// commit cost the way HBase group-commits WAL edits.
func (l *Log) AppendBatch(recs []Record) error {
	_, err := l.AppendBatchPos(recs)
	return err
}

// AppendBatchPos is AppendBatch returning the durable position of the
// batch's first record — the sequence number trace contexts attach so a
// slow-op log can name the exact log position of a stalled append.
//
// A failed write or sync FAILS the append — the caller must not ack the
// batch — and taints the active segment: the next append first rolls to a
// fresh segment, so a torn tail can never swallow later acknowledged
// records at replay. Errors carry the segment path so injected disk faults
// (vfs.FaultFS) surface as diagnosable failures at the region-server
// boundary.
func (l *Log) AppendBatchPos(recs []Record) (Pos, error) {
	if len(recs) == 0 {
		return Pos{}, nil
	}
	size := 0
	for _, r := range recs { // each frame's bound: header, ts, kind, two lengths
		size += 8 + 9 + 2*binary.MaxVarintLen64 + len(r.Key) + len(r.Value)
	}
	buf := make([]byte, 0, size)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pos, err := l.appendLocked(buf, len(recs))
	return pos, err
}

// appendLocked writes and syncs pre-encoded frames. Callers hold l.mu.
func (l *Log) appendLocked(buf []byte, recs int) (Pos, error) {
	if l.closed {
		return Pos{}, ErrClosed
	}
	if l.tainted {
		if err := l.rollLocked(); err != nil {
			return Pos{}, err
		}
	}
	var start time.Time
	if l.obs != nil {
		start = time.Now()
	}
	pos := Pos{Seg: l.segID, Off: l.segOff}
	if _, err := l.seg.Write(buf); err != nil {
		l.tainted = true
		return Pos{}, fmt.Errorf("wal: append %s: %w", segmentName(l.dir, l.segID), err)
	}
	if err := l.seg.Sync(); err != nil {
		// The bytes may or may not be durable; the record was not acked, so
		// the safe treatment is the same as a torn write.
		l.tainted = true
		return Pos{}, fmt.Errorf("wal: sync %s: %w", segmentName(l.dir, l.segID), err)
	}
	l.segOff += int64(len(buf))
	if l.obs != nil {
		l.obs(recs, len(buf), time.Since(start))
	}
	return pos, nil
}

// rollLocked closes the active segment and opens the next one. Callers hold
// l.mu. A close error on a tainted segment is reported but does not stop the
// roll: the replacement segment is what restores correctness.
func (l *Log) rollLocked() error {
	if err := l.seg.Close(); err != nil && !l.tainted {
		return fmt.Errorf("wal: close segment %s: %w", segmentName(l.dir, l.segID), err)
	}
	l.segID++
	return l.openSegment()
}

// Roll closes the active segment and starts a new one, returning the ID of
// the new active segment. Called at the start of a flush; all data covered
// by the flush lives in segments with ID < the returned value.
func (l *Log) Roll() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rollLocked(); err != nil {
		return 0, err
	}
	return l.segID, nil
}

// TruncateBefore deletes segments with ID < keepID — the roll-forward step
// after a successful flush (§5.3) — and returns how many segments it
// actually removed. It removes them oldest first and stops at the first
// failure, so what a failed truncation leaves is always a suffix of the log:
// replay never sees a segment without the ones logged after it. A segment
// another actor removed concurrently (a chaos restart racing a flush) is
// skipped, not an error.
func (l *Log) TruncateBefore(keepID uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	ids, err := segmentIDs(l.fs, l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, id := range ids {
		if id >= keepID {
			break
		}
		name := segmentName(l.dir, id)
		if err := l.fs.Remove(name); err != nil {
			if errors.Is(err, vfs.ErrNotExist) {
				continue // removed concurrently: already gone, not a failure
			}
			return removed, fmt.Errorf("wal: truncate segment %s: %w", name, err)
		}
		removed++
	}
	return removed, nil
}

// ActiveSegment returns the ID of the segment currently receiving appends.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segID
}

// Close closes the log. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment %s: %w", segmentName(l.dir, l.segID), err)
	}
	return nil
}
