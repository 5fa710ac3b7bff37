package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/metrics"
	"diffindex/internal/vfs"
)

// newestCell returns the version of key visible at ts, tombstones included:
// the first of the key's versions at or below ts in ScanAll's order.
func newestCell(t testing.TB, s *Store, key []byte, ts kv.Timestamp) (kv.Cell, bool) {
	t.Helper()
	cells, err := s.ScanAll(key, append(append([]byte(nil), key...), 0), ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		return kv.Cell{}, false
	}
	return cells[0], true
}

func newTestStore(t testing.TB, fs vfs.FS) *Store {
	t.Helper()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "store",
		MemtableBytes:      1 << 20,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetAcrossFlush(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		if err := s.Put(key, []byte(fmt.Sprintf("v%d", i)), kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d", s.TableCount())
	}
	// Overwrite some keys post-flush.
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		if err := s.Put(key, []byte("new"), kv.Timestamp(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		c, ok, err := s.Get(key, kv.MaxTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v%d", i)
		if i < 50 {
			want = "new"
		}
		if !ok || string(c.Value) != want {
			t.Errorf("Get(%s) = %q ok=%v, want %q", key, c.Value, ok, want)
		}
	}
}

func TestDeleteAcrossComponents(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	s.Put([]byte("k"), []byte("v1"), 10)
	s.Flush()
	s.Delete([]byte("k"), 20)
	if _, ok, _ := s.Get([]byte("k"), kv.MaxTimestamp); ok {
		t.Error("deleted key visible (tombstone in memtable, value in sstable)")
	}
	if c, ok, _ := s.Get([]byte("k"), 15); !ok || string(c.Value) != "v1" {
		t.Errorf("time-travel read before delete failed: %+v ok=%v", c, ok)
	}
	// Tombstone flushed too.
	s.Flush()
	if _, ok, _ := s.Get([]byte("k"), kv.MaxTimestamp); ok {
		t.Error("deleted key visible after tombstone flush")
	}
	if c, ok := newestCell(t, s, []byte("k"), kv.MaxTimestamp); !ok || !c.Tombstone() {
		t.Errorf("the newest version must be the tombstone: %+v ok=%v", c, ok)
	}
}

func TestOldTimestampWriteAfterFlush(t *testing.T) {
	// Diff-Index writes tombstones at t_new−δ, which can be OLDER than
	// entries already flushed. The newest-timestamp-wins rule must hold
	// regardless of which component holds which version.
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	s.Put([]byte("idx"), nil, 100)
	s.Flush()
	// A late tombstone with an older timestamp arrives in the memtable.
	s.Delete([]byte("idx"), 50)
	if _, ok, _ := s.Get([]byte("idx"), kv.MaxTimestamp); !ok {
		t.Error("older tombstone must not mask a newer flushed put")
	}
	if _, ok, _ := s.Get([]byte("idx"), 70); ok {
		t.Error("read at ts=70 must see the ts=50 tombstone")
	}
}

func TestReopenRecoversWAL(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	s.Put([]byte("flushed"), []byte("f"), 1)
	s.Flush()
	s.Put([]byte("unflushed"), []byte("u"), 2)
	s.Delete([]byte("flushed"), 3)
	s.Close()

	var replayed []kv.Cell
	s2, err := Open(Options{
		FS: fs, Dir: "store",
		DisableAutoFlush: true, DisableAutoCompact: true,
		OnReplay: func(c kv.Cell) { replayed = append(replayed, c.Clone()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// Only post-flush writes are replayed (earlier segments truncated).
	if len(replayed) != 2 {
		t.Fatalf("replayed %d cells, want 2: %+v", len(replayed), replayed)
	}
	if string(replayed[0].Key) != "unflushed" || replayed[1].Kind != kv.KindDelete {
		t.Errorf("replayed = %+v", replayed)
	}
	if c, ok, _ := s2.Get([]byte("unflushed"), kv.MaxTimestamp); !ok || string(c.Value) != "u" {
		t.Errorf("unflushed data lost: %+v ok=%v", c, ok)
	}
	if _, ok, _ := s2.Get([]byte("flushed"), kv.MaxTimestamp); ok {
		t.Error("tombstone lost in recovery")
	}
}

// truncFailFS lists files rotated by one place, so the file system's order
// is not the log's, and refuses to remove the file named refuse.
type truncFailFS struct {
	vfs.FS
	refuse string
}

func (fs *truncFailFS) List(prefix string) ([]string, error) {
	names, err := fs.FS.List(prefix)
	if len(names) > 1 {
		names = append(names[1:], names[0])
	}
	return names, err
}

func (fs *truncFailFS) Remove(name string) error {
	if name == fs.refuse {
		return errors.New("remove refused")
	}
	return fs.FS.Remove(name)
}

// TestFailedTruncationRecovers: a flush whose log truncation fails part way
// leaves segments behind, and recovery replays them on top of tables that a
// bottom-tier compaction has since rewritten. The replay must bring back
// nothing the compaction dropped: the deleted row stays deleted, the GC
// horizon the compaction raised is restored, and Get and Scan at every
// recorded timestamp answer (or refuse) after the reopen exactly as they
// did before the crash.
func TestFailedTruncationRecovers(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	fs := &truncFailFS{FS: fault}
	open := func() *Store {
		t.Helper()
		s, err := Open(Options{
			FS: fs, Dir: "store",
			DisableAutoFlush: true, DisableAutoCompact: true, DisableScrub: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	var ts kv.Timestamp
	write := func(key, val string) {
		t.Helper()
		ts++
		var err error
		if val == "" {
			err = s.Delete([]byte(key), ts)
		} else {
			err = s.Put([]byte(key), []byte(val), ts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// A failed append taints the active segment, so the next append rolls:
	// each tear ends a segment without a flush.
	tear := func() {
		t.Helper()
		fault.Arm(vfs.FaultConfig{Seed: 1, WriteErrProb: 1, PathSubstr: ".wal"})
		ts++
		if err := s.Put([]byte("torn"), []byte("t"), ts); err == nil {
			t.Fatal("append succeeded under a write fault")
		}
		fault.Disarm()
	}

	write("x", "x1") // segment 1, truncated by the first flush
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	write("row", "r1") // segment 2
	tear()
	write("row", "") // segment 3
	tear()
	write("y", "y1") // segment 4
	// Truncation removes segments 2 and 3, then fails at 4.
	fs.refuse = fmt.Sprintf("store/wal/%020d.wal", 4)
	if err := s.Flush(); err == nil {
		t.Fatal("flush reported no error for a refused segment removal")
	}
	fs.refuse = ""
	// The refused truncation still counts the flush: its table is installed.
	var installed int64
	for _, h := range s.tables {
		installed += h.r.Size()
	}
	if got := s.Stats().FlushBytes; len(s.tables) != 2 || got != installed {
		t.Fatalf("FlushBytes = %d with %d tables installed, want their summed size %d", got, len(s.tables), installed)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TombstonesDropped != 1 || st.CompactionCellsDropped < 2 {
		t.Fatalf("compaction kept the deleted row's history: %+v", st)
	}

	reads := []kv.Timestamp{kv.MaxTimestamp}
	for at := kv.Timestamp(1); at <= ts; at++ {
		reads = append(reads, at)
	}
	answers := func(s *Store) []string {
		var out []string
		for _, at := range reads {
			for _, key := range []string{"x", "row", "torn", "y"} {
				c, ok, err := s.Get([]byte(key), at)
				out = append(out, fmt.Sprintf("Get(%s@%d) = %q %v %v", key, at, c.Value, ok, err))
			}
			rows, err := s.Scan(nil, nil, at, 0)
			line := fmt.Sprintf("Scan(@%d) = %v:", at, err)
			for _, r := range rows {
				line += fmt.Sprintf(" %s=%s@%d", r.Key, r.Value, r.Ts)
			}
			out = append(out, line)
		}
		return out
	}
	before, horizon := answers(s), s.Horizon()
	if horizon != ts { // the flushed "y" put
		t.Fatalf("horizon after the compaction = %d, want %d", horizon, ts)
	}
	// The crash: abandon the store without Close.
	s = open()
	defer s.Close()
	if got := s.Horizon(); got != horizon {
		t.Fatalf("horizon after recovery = %d, want %d", got, horizon)
	}
	if _, ok, _ := s.Get([]byte("row"), kv.MaxTimestamp); ok {
		t.Fatal("the deleted row came back after recovery")
	}
	after := answers(s)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("before the crash %s; after recovery %s", before[i], after[i])
		}
	}
}

func TestScan(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	for i := 0; i < 20; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), kv.Timestamp(i+1))
	}
	s.Flush()
	s.Delete([]byte("k05"), 100)
	s.Put([]byte("k06"), []byte("updated"), 101)

	res, err := s.Scan([]byte("k03"), []byte("k08"), kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"k03": "v3", "k04": "v4", "k06": "updated", "k07": "v7"}
	if len(res) != len(want) {
		t.Fatalf("Scan returned %d rows: %+v", len(res), res)
	}
	for _, r := range res {
		if want[string(r.Key)] != string(r.Value) {
			t.Errorf("Scan row %s = %q, want %q", r.Key, r.Value, want[string(r.Key)])
		}
	}

	// Limit.
	res, _ = s.Scan([]byte("k00"), nil, kv.MaxTimestamp, 3)
	if len(res) != 3 {
		t.Errorf("limited scan returned %d rows", len(res))
	}
	// Timestamp visibility: at ts=5 only k00..k04 exist.
	res, _ = s.Scan(nil, nil, 5, 0)
	if len(res) != 5 {
		t.Errorf("scan at ts=5 returned %d rows, want 5", len(res))
	}
	// Empty range.
	res, _ = s.Scan([]byte("zzz"), nil, kv.MaxTimestamp, 0)
	if len(res) != 0 {
		t.Errorf("scan past end returned %d rows", len(res))
	}
}

func TestScanSkipsNewerVersionsAndSeesOlder(t *testing.T) {
	// A key whose newest version is above the read timestamp must still
	// surface its older visible version.
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	s.Put([]byte("k"), []byte("old"), 10)
	s.Put([]byte("k"), []byte("new"), 100)
	res, err := s.Scan(nil, nil, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Value) != "old" {
		t.Errorf("scan at ts=50 = %+v, want the ts=10 version", res)
	}
}

func TestCompactionMergesAndGCs(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 5 versions of one key across 5 tables, plus a deleted key.
	for v := 1; v <= 5; v++ {
		s.Put([]byte("multi"), []byte(fmt.Sprintf("v%d", v)), kv.Timestamp(v*10))
		if v == 3 {
			s.Put([]byte("dead"), []byte("x"), 31)
		}
		if v == 4 {
			s.Delete([]byte("dead"), 41)
		}
		s.Flush()
	}
	if s.TableCount() != 5 {
		t.Fatalf("TableCount = %d", s.TableCount())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount after compaction = %d", s.TableCount())
	}
	// Newest version survives.
	if c, ok, _ := s.Get([]byte("multi"), kv.MaxTimestamp); !ok || string(c.Value) != "v5" {
		t.Errorf("newest version lost: %+v ok=%v", c, ok)
	}
	// The round raised the horizon to its inputs' max timestamp (50) and
	// kept each key's newest version at or below it: reads below it are
	// refused, not answered from what survived.
	if h := s.Horizon(); h != 50 {
		t.Errorf("Horizon = %d, want 50", h)
	}
	if _, _, err := s.Get([]byte("multi"), 45); !errors.Is(err, ErrHistoryTrimmed) {
		t.Errorf("Get below the horizon: err = %v, want ErrHistoryTrimmed", err)
	}
	if st := s.Stats(); st.CompactionCellsDropped != 6 || st.TombstonesDropped != 1 {
		t.Errorf("dropped %d cells and %d tombstones, want 6 (multi's 4 older versions, dead's put and marker) and 1",
			st.CompactionCellsDropped, st.TombstonesDropped)
	}
	// Tombstone and masked data dropped entirely.
	if _, ok, _ := s.Get([]byte("dead"), kv.MaxTimestamp); ok {
		t.Error("deleted key visible after compaction")
	}
	if c, ok := newestCell(t, s, []byte("dead"), kv.MaxTimestamp); ok {
		t.Errorf("tombstone not GCed at major compaction: %+v", c)
	}
	// Old table files are deleted once unreferenced.
	names, _ := fs.List("store/")
	sstCount := 0
	for _, n := range names {
		if _, ok := parseTableNum("store", n); ok {
			sstCount++
		}
	}
	if sstCount != 1 {
		t.Errorf("%d .sst files remain after compaction, want 1", sstCount)
	}
}

func TestCompactionPreservesNewerFlushes(t *testing.T) {
	// Tables flushed *during* a compaction must survive installation.
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	s.Put([]byte("a"), []byte("1"), 1)
	s.Flush()
	s.Put([]byte("b"), []byte("2"), 2)
	s.Flush()
	// Simulate a concurrent flush landing after compaction snapshots:
	// run Compact, then verify reads still see everything.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("c"), []byte("3"), 3)
	s.Flush()
	for _, k := range []string{"a", "b", "c"} {
		if _, ok, _ := s.Get([]byte(k), kv.MaxTimestamp); !ok {
			t.Errorf("key %s lost", k)
		}
	}
}

func TestPreFlushHookPausesWrites(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	s.Put([]byte("k"), []byte("v"), 1)

	hookRunning := make(chan struct{})
	releaseHook := make(chan struct{})
	s.RegisterPreFlush(func() error {
		close(hookRunning)
		<-releaseHook
		return nil
	})

	flushDone := make(chan error, 1)
	go func() { flushDone <- s.Flush() }()
	<-hookRunning

	// A write issued while the hook runs must block until the hook returns.
	putDone := make(chan struct{})
	go func() {
		s.Put([]byte("k2"), []byte("v2"), 2)
		close(putDone)
	}()
	select {
	case <-putDone:
		t.Fatal("Put completed while pre-flush hook held the write gate")
	default:
	}
	close(releaseHook)
	<-putDone
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	// The paused put must have landed in the NEW memtable, not the flushed one.
	if c, ok, _ := s.Get([]byte("k2"), kv.MaxTimestamp); !ok || string(c.Value) != "v2" {
		t.Errorf("paused put lost: %+v ok=%v", c, ok)
	}
}

func TestFlushEmptyMemtableIsNoop(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 0 {
		t.Error("empty flush produced a table")
	}
}

// TestFlushReleasesMemtable checks that a flushed memtable is unreachable
// from the store: no slot of the immutable list, its spare capacity
// included, still points at it, so the GC can free it.
func TestFlushReleasesMemtable(t *testing.T) {
	s := newTestStore(t, vfs.NewMemFS())
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		for j, m := range s.imm[:cap(s.imm)] {
			if m != nil {
				t.Errorf("flush %d: imm slot %d of %d still holds a memtable", i, j, cap(s.imm))
			}
		}
		s.mu.RUnlock()
	}
}

func TestAutoFlushAndCompact(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		MemtableBytes:   8 << 10,
		CompactionFanIn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 400; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), val, kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
		// The async auto-flush may fold everything into one table; an
		// explicit flush halfway leaves at least two tier-0 tables, which
		// fill the tier at fan-in 2.
		if i == 199 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil { // push out the tail
		t.Fatal(err)
	}
	s.WaitCompactions()
	if st := s.Stats(); st.FlushBytes == 0 || st.Compactions == 0 {
		t.Errorf("auto flush or compaction never triggered: %+v", st)
	}
	for i := 0; i < 400; i++ {
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("k%06d", i)), kv.MaxTimestamp); !ok {
			t.Fatalf("key %d lost across auto flush/compact", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	s.Close()
	if err := s.Put([]byte("k"), []byte("v"), 1); err != ErrClosed {
		t.Errorf("Put after close: %v", err)
	}
	if _, _, err := s.Get([]byte("k"), 1); err != ErrClosed {
		t.Errorf("Get after close: %v", err)
	}
	if _, err := s.Scan(nil, nil, 1, 0); err != ErrClosed {
		t.Errorf("Scan after close: %v", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Errorf("Flush after close: %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact after close: %v", err)
	}
	if err := s.Close(); err != ErrClosed {
		t.Errorf("double Close: %v", err)
	}
}

// TestReadsRaceClose: a read that took its table references just before
// Close must finish on an open file — a region close (balancer move, split,
// decommission) races live reads, and the only error the cluster layer can
// turn into a re-route is ErrClosed. Closing the readers out from under the
// in-flight scans surfaced "vfs: file is closed" instead. Every block read
// sleeps here, so a scan of the ~20-block table spans milliseconds and Close
// lands in the middle of all four.
func TestReadsRaceClose(t *testing.T) {
	const keys, readers = 4000, 4
	fs := vfs.NewLatencyFS(vfs.NewMemFS(), vfs.LatencyProfile{ReadLatency: 200 * time.Microsecond})
	s := newTestStore(t, fs)
	batch := make([]kv.Cell, keys)
	for i := range batch {
		batch[i] = kv.Cell{Key: []byte(fmt.Sprintf("k%05d", i)), Value: []byte("v"), Ts: 1, Kind: kv.KindPut}
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var started, wg sync.WaitGroup
	started.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				rows, err := s.Scan(nil, nil, kv.MaxTimestamp, 0)
				if first {
					started.Done()
				}
				if err == ErrClosed {
					return
				}
				if err != nil || len(rows) != keys {
					t.Errorf("scan racing Close: %d rows, err %v", len(rows), err)
					return
				}
			}
		}()
	}
	started.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestFlushRacesClose: Close must not return while an explicit Flush is
// still writing its SSTable. The next owner of a region opens the directory
// as soon as the old owner's Close returns; a half-written table there fails
// that open ("malformed table", "bad magic"). Every write sleeps here, so
// the flush's table write spans milliseconds and Close lands inside it.
func TestFlushRacesClose(t *testing.T) {
	const keys = 2000
	fs := vfs.NewLatencyFS(vfs.NewMemFS(), vfs.LatencyProfile{WriteLatency: 100 * time.Microsecond})
	s := newTestStore(t, fs)
	batch := make([]kv.Cell, keys)
	for i := range batch {
		batch[i] = kv.Cell{Key: []byte(fmt.Sprintf("k%05d", i)), Value: []byte("v"), Ts: 1, Kind: kv.KindPut}
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	// Close once the memtable is swapped out: the flush is in its table write.
	for {
		s.mu.RLock()
		swapped := len(s.imm) > 0
		s.mu.RUnlock()
		if swapped {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(Options{FS: fs, Dir: "store", DisableAutoFlush: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatalf("open after Close raced Flush: %v", err)
	}
	defer reopened.Close()
	rows, err := reopened.Scan(nil, nil, kv.MaxTimestamp, 0)
	if err != nil || len(rows) != keys {
		t.Fatalf("reopened store: %d rows, err %v; want %d", len(rows), err, keys)
	}
	if err := <-flushed; err != nil && err != ErrClosed {
		t.Fatalf("flush racing Close: %v", err)
	}
}

// TestModelEquivalence drives the store and an in-memory model with random
// operations including flushes and compactions, then compares reads.
func TestModelEquivalence(t *testing.T) {
	type version struct {
		ts  kv.Timestamp
		val string
		del bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.NewMemFS()
		s := newTestStore(t, fs)
		defer s.Close()
		model := map[string][]version{}
		keys := []string{"a", "bb", "ccc", "dddd", "e"}
		ts := kv.Timestamp(0)
		for op := 0; op < 300; op++ {
			k := keys[rng.Intn(len(keys))]
			ts++
			switch rng.Intn(10) {
			case 0:
				s.Delete([]byte(k), ts)
				model[k] = append(model[k], version{ts: ts, del: true})
			case 1:
				if err := s.Flush(); err != nil {
					return false
				}
			default:
				v := fmt.Sprintf("%s-%d", k, ts)
				s.Put([]byte(k), []byte(v), ts)
				model[k] = append(model[k], version{ts: ts, val: v})
			}
		}
		// Compare latest-visible reads, which no compaction refuses.
		for _, k := range keys {
			var best *version
			for i := range model[k] {
				v := &model[k][i]
				if best == nil || v.ts > best.ts {
					best = v
				}
			}
			c, ok, err := s.Get([]byte(k), kv.MaxTimestamp)
			if err != nil {
				return false
			}
			if best == nil || best.del {
				if ok {
					return false
				}
			} else if !ok || string(c.Value) != best.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		MemtableBytes:   16 << 10,
		CompactionFanIn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, per = 4, 500
	ts := kv.NewClock(1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if err := s.Put(key, bytes.Repeat([]byte("v"), 64), ts.Next()); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, _, err := s.Get(key, kv.MaxTimestamp); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent scanner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := s.Scan(nil, nil, kv.MaxTimestamp, 100); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, per - 1} {
			key := []byte(fmt.Sprintf("w%d-%04d", w, i))
			if _, ok, _ := s.Get(key, kv.MaxTimestamp); !ok {
				t.Errorf("key %s lost", key)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseTableNum(t *testing.T) {
	if n, ok := parseTableNum("d", "d/00000000000000000007.sst"); !ok || n != 7 {
		t.Errorf("got (%d, %v)", n, ok)
	}
	for _, bad := range []string{"d/wal/1.sst", "d/x.sst", "e/1.sst", "d/1.wal"} {
		if _, ok := parseTableNum("d", bad); ok {
			t.Errorf("parseTableNum(%q) unexpectedly ok", bad)
		}
	}
}

// TestStatsWithoutRegistry: Stats reads the store's registry instruments. A
// store opened without a registry (the way a standalone tool opens one)
// still counts flushes and compactions, and a store given a registry
// reports the same values through Stats and through Registry.Value.
func TestStatsWithoutRegistry(t *testing.T) {
	run := func(reg *metrics.Registry) Stats {
		t.Helper()
		s, err := Open(Options{
			FS: vfs.NewMemFS(), Dir: "store", Metrics: reg, MetricsTable: "t",
			DisableAutoFlush: true, DisableAutoCompact: true, DisableScrub: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for gen := 0; gen < 2; gen++ {
			for i := 0; i < 200; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", gen)), kv.Timestamp(gen*200+i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if ran, err := s.CompactOnce(); err != nil || !ran {
			t.Fatalf("CompactOnce = %v, %v; want a round", ran, err)
		}
		return s.Stats()
	}

	private := run(nil)
	if private.FlushBytes == 0 || private.CompactionBytesRead == 0 || private.CompactionBytesWritten == 0 {
		t.Fatalf("store without a registry counted nothing: %+v", private)
	}
	reg := metrics.NewRegistry()
	if shared := run(reg); shared != private {
		t.Fatalf("Stats with a registry = %+v, without = %+v", shared, private)
	}
	table := metrics.L("table", "t")
	for _, c := range []struct {
		name  string
		dir   string
		field int64
	}{
		{"diffindex_flush_bytes_total", "", private.FlushBytes},
		{"diffindex_compaction_rounds_total", "", private.Compactions},
		{"diffindex_compaction_bytes_total", "read", private.CompactionBytesRead},
		{"diffindex_compaction_bytes_total", "write", private.CompactionBytesWritten},
		{"diffindex_compaction_gc_cells_total", "", private.CompactionCellsDropped},
		{"diffindex_compaction_tombstones_dropped_total", "", private.TombstonesDropped},
		{"diffindex_compaction_errors_total", "", private.CompactionErrors},
	} {
		labels := []metrics.Label{table}
		if c.dir != "" {
			labels = append(labels, metrics.L("dir", c.dir))
		}
		if v, ok := reg.Value(c.name, labels...); !ok || v != c.field {
			t.Errorf("%s%v = %d, %v; Stats reports %d", c.name, labels, v, ok, c.field)
		}
	}
}
