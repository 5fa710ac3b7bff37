package lsm

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

func TestTierOf(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{0, 0},
		{1, 0},
		{tierBase, 0},
		{tierBase*tierRatio - 1, 0},
		{tierBase * tierRatio, 1},
		{tierBase*tierRatio*tierRatio - 1, 1},
		{tierBase * tierRatio * tierRatio, 2},
		{1 << 30, 7},
	}
	for _, c := range cases {
		if got := tierOf(c.size); got != c.want {
			t.Errorf("tierOf(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func sameSize(n int, size int64) []tableMeta {
	metas := make([]tableMeta, n)
	for i := range metas {
		metas[i] = tableMeta{Size: size}
	}
	return metas
}

func TestPickTieredBoundedFanIn(t *testing.T) {
	// The core guarantee: no matter how many tables exist, one round never
	// picks more than fanIn of them — compaction cannot rewrite the store.
	for _, n := range []int{2, 5, 12, 40} {
		metas := sameSize(n, 10<<10)
		picked := pickTiered(metas, 4, 2, false)
		if picked == nil {
			t.Fatalf("n=%d: no pick", n)
		}
		if len(picked) > 4 {
			t.Errorf("n=%d: picked %d tables, fan-in is 4", n, len(picked))
		}
		if n > 4 && len(picked) == n {
			t.Errorf("n=%d: round rewrites every live table", n)
		}
	}
}

func TestPickTieredPrefersLowestFullTier(t *testing.T) {
	// Tier 1 (256 KiB..1 MiB) has 4 members, tier 0 only 2: with fanIn 4
	// the full lower tier 0 is not full, so tier 1 wins only when tier 0
	// lacks fanIn members... construct the opposite: tier 0 full.
	metas := []tableMeta{
		{Size: 300 << 10}, {Size: 300 << 10}, {Size: 300 << 10}, {Size: 300 << 10}, // tier 1
		{Size: 10 << 10}, {Size: 10 << 10}, {Size: 10 << 10}, {Size: 10 << 10}, // tier 0
	}
	picked := pickTiered(metas, 4, 100, false)
	if len(picked) != 4 {
		t.Fatalf("picked %v", picked)
	}
	for _, idx := range picked {
		if metas[idx].Size != 10<<10 {
			t.Errorf("picked table %d from tier %d, want the full tier 0", idx, tierOf(metas[idx].Size))
		}
	}
}

func TestPickTieredThresholdAndForce(t *testing.T) {
	// Three tables in three different tiers: no tier is full, and with the
	// count below threshold nothing is picked — unless forced.
	metas := []tableMeta{{Size: 10 << 10}, {Size: 300 << 10}, {Size: 2 << 20}}
	if picked := pickTiered(metas, 4, 10, false); picked != nil {
		t.Errorf("picked %v below threshold with no full tier", picked)
	}
	picked := pickTiered(metas, 2, 10, true)
	if len(picked) != 2 {
		t.Fatalf("forced pick = %v, want 2 smallest", picked)
	}
	// The two smallest overall are indices 0 and 1.
	if picked[0] != 0 || picked[1] != 1 {
		t.Errorf("forced pick = %v, want [0 1]", picked)
	}
	// Past the threshold the same shape compacts without force.
	if picked := pickTiered(metas, 2, 3, false); len(picked) != 2 {
		t.Errorf("threshold pick = %v, want 2 tables", picked)
	}
}

func TestPickTieredSkipsBusy(t *testing.T) {
	metas := sameSize(5, 10<<10)
	metas[0].Busy = true
	metas[2].Busy = true
	picked := pickTiered(metas, 4, 4, false)
	if len(picked) != 3 {
		t.Fatalf("picked %v, want the 3 idle tables", picked)
	}
	for _, idx := range picked {
		if metas[idx].Busy {
			t.Errorf("picked busy table %d", idx)
		}
	}
	// With fewer than two claimable tables there is nothing to merge.
	metas[1].Busy = true
	metas[3].Busy = true
	if picked := pickTiered(metas, 4, 4, true); picked != nil {
		t.Errorf("picked %v with one idle table", picked)
	}
}

func TestIsBottom(t *testing.T) {
	if !isBottom([]int{3, 4}, 5) {
		t.Error("complete tail not detected")
	}
	if isBottom([]int{2, 4}, 5) {
		t.Error("gap accepted as bottom")
	}
	if isBottom([]int{0, 1}, 5) {
		t.Error("prefix accepted as bottom")
	}
	if !isBottom([]int{0, 1, 2}, 3) {
		t.Error("whole list not detected as bottom")
	}
}

// flushTable writes kvs into the memtable and flushes one SSTable.
func flushTable(t *testing.T, s *Store, base string, n int, ts kv.Timestamp) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("%s%04d", base, i)), []byte("v"), ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactOnceIsBounded(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		CompactionFanIn:    3,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 8; i++ {
		flushTable(t, s, fmt.Sprintf("t%d-", i), 4, kv.Timestamp(i+1))
	}
	ran, err := s.CompactOnce()
	if err != nil || !ran {
		t.Fatalf("CompactOnce = %v, %v", ran, err)
	}
	// One round merges exactly fanIn tables: 8 - 3 + 1 = 6 remain.
	if got := s.TableCount(); got != 6 {
		t.Fatalf("TableCount after one round = %d, want 6", got)
	}
	if st := s.Stats(); st.Compactions != 1 || st.CompactionBytesRead == 0 || st.CompactionBytesWritten == 0 {
		t.Errorf("stats after round: %+v", st)
	}
	// Every key from every table is still readable.
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("t%d-0000", i))
		if _, ok, err := s.Get(key, kv.MaxTimestamp); err != nil || !ok {
			t.Errorf("key %s lost after round (ok=%v err=%v)", key, ok, err)
		}
	}
}

func TestTombstoneRetainedAboveBottomTier(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		CompactionFanIn:    2,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Oldest (and largest) table holds the live value; newer small tables
	// hold the tombstone and a filler run. A forced round picks the two
	// smallest — the non-bottom pair — leaving the big table untouched.
	flushTable(t, s, "big-", 60, 10)
	s.Put([]byte("big-0001"), []byte("doomed"), 11)
	s.Flush()
	s.Delete([]byte("big-0001"), 20)
	s.Flush() // small table with the tombstone
	if s.TableCount() != 3 {
		t.Fatalf("TableCount = %d", s.TableCount())
	}

	ran, err := s.CompactOnce()
	if err != nil || !ran {
		t.Fatalf("CompactOnce = %v, %v", ran, err)
	}
	if got := s.TableCount(); got != 2 {
		t.Fatalf("TableCount after non-bottom round = %d, want 2", got)
	}
	// The round was not at the bottom: the tombstone must survive so it
	// keeps masking the version in the untouched oldest table.
	if st := s.Stats(); st.TombstonesDropped != 0 {
		t.Fatalf("tombstone dropped above the bottom tier: %+v", st)
	}
	if _, ok, _ := s.Get([]byte("big-0001"), kv.MaxTimestamp); ok {
		t.Fatal("deleted key resurfaced after non-bottom compaction")
	}
	if c, ok := newestCell(t, s, []byte("big-0001"), kv.MaxTimestamp); !ok || !c.Tombstone() {
		t.Fatalf("tombstone lost in non-bottom round: %+v ok=%v", c, ok)
	}

	// A major compaction reaches the bottom: now the marker (and the data
	// it masks) may go.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TombstonesDropped == 0 {
		t.Error("bottom-tier compaction retired no tombstone")
	}
	if _, ok := newestCell(t, s, []byte("big-0001"), kv.MaxTimestamp); ok {
		t.Error("tombstone survived bottom-tier compaction")
	}
	if _, ok, _ := s.Get([]byte("big-0000"), kv.MaxTimestamp); !ok {
		t.Error("live key lost at bottom-tier compaction")
	}
}

// RetainTombstones (set for global-index stores): even a bottom-tier round
// keeps delete markers, because an at-least-once redelivery of the data
// they mask can arrive after the compaction — and must stay invisible.
func TestRetainTombstonesSurvivesBottomTier(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		RetainTombstones:   true,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Put([]byte("k"), []byte("v"), 10)
	s.Flush()
	s.Delete([]byte("k"), 20)
	s.Flush()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TombstonesDropped != 0 {
		t.Fatalf("marker dropped despite RetainTombstones: %+v", st)
	}
	if st.CompactionCellsDropped == 0 {
		t.Error("masked put not GC'd (retention should only spare the marker)")
	}
	if c, ok := newestCell(t, s, []byte("k"), kv.MaxTimestamp); !ok || !c.Tombstone() {
		t.Fatalf("marker lost at bottom-tier round: %+v ok=%v", c, ok)
	}
	// The redelivery that motivates the option: the masked put arrives
	// again at its original timestamp and must remain invisible.
	s.Put([]byte("k"), []byte("v"), 10)
	if _, ok, _ := s.Get([]byte("k"), kv.MaxTimestamp); ok {
		t.Error("redelivered masked put resurfaced")
	}
}

func TestPostCompactHookReceivesGCCells(t *testing.T) {
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

	var mu sync.Mutex
	var got []kv.Cell
	var bottom bool
	s.RegisterPostCompact(func(gc CompactionGC) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, gc.Dropped...)
		bottom = gc.Bottom
	})

	s.Put([]byte("k"), []byte("old"), 10)
	s.Flush()
	s.Put([]byte("k"), []byte("new"), 20)
	s.Flush()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if !bottom {
		t.Error("major compaction not flagged as bottom")
	}
	found := false
	for _, c := range got {
		if string(c.Key) == "k" && string(c.Value) == "old" && c.Ts == 10 && c.Kind == kv.KindPut {
			found = true
		}
	}
	if !found {
		t.Errorf("GC'd version not delivered to hook: %v", got)
	}
	if c, ok, _ := s.Get([]byte("k"), kv.MaxTimestamp); !ok || string(c.Value) != "new" {
		t.Errorf("surviving version wrong: %+v ok=%v", c, ok)
	}
}

func TestBackgroundCompactionErrorSurfaced(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	s, err := Open(Options{
		FS: fault, Dir: "store",
		CompactionThreshold: 2,
		DisableAutoFlush:    true,
		DisableAutoCompact:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	flushTable(t, s, "a-", 3, 1)
	flushTable(t, s, "b-", 3, 2)

	// Every write now fails: the background round's output cannot be
	// written. The failure must land in the stats instead of vanishing.
	fault.Arm(vfs.FaultConfig{Seed: 1, WriteErrProb: 1, PathSubstr: ".sst"})
	s.maybeScheduleCompaction()
	s.WaitCompactions()
	fault.Disarm()

	st := s.Stats()
	if st.CompactionErrors == 0 {
		t.Fatal("failed background compaction not counted")
	}
	if !strings.Contains(st.LastCompactionError, "injected") {
		t.Errorf("LastCompactionError = %q, want the injected fault", st.LastCompactionError)
	}
	if st.Compactions != 0 {
		t.Errorf("failed round counted as completed: %+v", st)
	}
	// Inputs are left in place; a retry after the fault clears succeeds.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions != 1 || s.TableCount() != 1 {
		t.Errorf("retry after fault: %+v tables=%d", st, s.TableCount())
	}
}

// TestReadsRaceConcurrentCompactions hammers the store with writes, reads
// and scans while the incremental engine flushes and compacts in the
// background — the -race proof that claim-based scheduling, refcounted
// table retirement and the merge install are data-race free.
func TestReadsRaceConcurrentCompactions(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		MemtableBytes:       8 << 10,
		CompactionThreshold: 2,
		CompactionFanIn:     2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		perW    = 250
	)
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perW; i++ {
				key := []byte(fmt.Sprintf("w%d-%05d", w, i))
				ts := kv.Timestamp(w*perW + i + 1)
				if err := s.Put(key, []byte(strings.Repeat("v", 64)), ts); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					if err := s.Delete(key, ts+100000); err != nil {
						t.Error(err)
						return
					}
				}
				// Flush explicitly so the workload produces enough tables
				// to keep the compaction pipeline busy; MemFS writes are
				// faster than the async auto-flush can keep up with.
				if i%60 == 59 {
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers and scanners race the writers, flushes and compactions.
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%05d", r, i%perW))
				if _, _, err := s.Get(key, kv.MaxTimestamp); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if _, err := s.Scan(nil, nil, kv.MaxTimestamp, 32); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.WaitCompactions()
	st := s.Stats()
	if st.Compactions == 0 {
		t.Error("no compaction round ran during the workload")
	}
	if st.CompactionErrors != 0 {
		t.Errorf("compaction errors under race: %d (%s)", st.CompactionErrors, st.LastCompactionError)
	}
	// Every key (or its tombstone) is still decided correctly.
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			key := []byte(fmt.Sprintf("w%d-%05d", w, i))
			_, ok, err := s.Get(key, kv.MaxTimestamp)
			if err != nil {
				t.Fatal(err)
			}
			deleted := i%17 == 0
			if ok == deleted {
				t.Fatalf("key %s: visible=%v, want %v", key, ok, !deleted)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
