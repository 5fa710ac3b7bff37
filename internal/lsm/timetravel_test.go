package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

func newTimeTravelStore(t testing.TB, fs vfs.FS, maxVersions int) *Store {
	t.Helper()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		MaxVersions:        maxVersions,
		WALRetainSegments:  -1,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGetAsOfAcrossComponents: as-of reads answer from memtable and
// SSTables alike, and a tombstone at ts means "did not exist then", not
// "trimmed".
func TestGetAsOfAcrossComponents(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTimeTravelStore(t, fs, 10)
	defer s.Close()

	key := []byte("k")
	mustPut := func(ts int, val string) {
		t.Helper()
		if err := s.Put(key, []byte(val), kv.Timestamp(ts)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(1, "v1")
	mustPut(2, "v2")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key, 3); err != nil {
		t.Fatal(err)
	}
	mustPut(4, "v4") // memtable

	cases := []struct {
		ts    int
		want  string
		exist bool
	}{
		{0, "", false}, // before the key existed
		{1, "v1", true},
		{2, "v2", true},
		{3, "", false}, // deleted as of 3
		{4, "v4", true},
		{99, "v4", true}, // future ts: newest visible
	}
	for _, tc := range cases {
		c, ok, err := s.GetAsOf(key, kv.Timestamp(tc.ts))
		if err != nil {
			t.Fatalf("GetAsOf(ts=%d): %v", tc.ts, err)
		}
		if ok != tc.exist || (ok && string(c.Value) != tc.want) {
			t.Errorf("GetAsOf(ts=%d) = (%q, %v), want (%q, %v)", tc.ts, c.Value, ok, tc.want, tc.exist)
		}
	}

	// ScanAsOf agrees with the point reads.
	rows, err := s.ScanAsOf(nil, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Value) != "v2" || rows[0].Ts != 2 {
		t.Errorf("ScanAsOf(ts=2) = %+v", rows)
	}
	rows, err = s.ScanAsOf(nil, nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("ScanAsOf(ts=3) = %+v, want empty (deleted)", rows)
	}
}

// TestGetAsOfTrimmedHistory: once compaction discards the version an old
// timestamp needs, the read reports ErrHistoryTrimmed instead of "absent".
func TestGetAsOfTrimmedHistory(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		MaxVersions:        2,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := []byte("k")
	for ts := 1; ts <= 6; ts++ {
		if err := s.Put(key, []byte(fmt.Sprintf("v%d", ts)), kv.Timestamp(ts)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Compact merges every table, down to the bottom: versions past 2 drop.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetAsOf(key, 1); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("GetAsOf(trimmed ts) err = %v, want ErrHistoryTrimmed", err)
	}
	// The surviving versions still answer.
	c, ok, err := s.GetAsOf(key, 6)
	if err != nil || !ok || string(c.Value) != "v6" {
		t.Fatalf("GetAsOf(live ts) = (%q, %v, %v)", c.Value, ok, err)
	}
	// MaxTimestamp reads never report trimming.
	if _, ok, err := s.Get([]byte("nosuch"), kv.MaxTimestamp); err != nil || ok {
		t.Fatalf("Get(nosuch) = (%v, %v)", ok, err)
	}
}

// TestSnapshotWALStatsAndRecovery: an on-demand snapshot round folds the
// sealed unflushed span, idle rounds are skipped, and a store reopened
// through the snapshot recovers the same state a full replay would.
func TestSnapshotWALStatsAndRecovery(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTimeTravelStore(t, fs, 64)
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)), kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.SnapshotWAL()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Taken || st.Cells != 10 || st.Bytes == 0 {
		t.Fatalf("snapshot stats = %+v, want 10 folded cells", st)
	}
	// Nothing moved: the next round must skip.
	st, err = s.SnapshotWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.Taken {
		t.Fatalf("idle snapshot round was taken: %+v", st)
	}
	// Tail past the snapshot, then crash (no Close) and recover.
	if err := s.Put([]byte("k99"), []byte("tail"), 100); err != nil {
		t.Fatal(err)
	}

	replayed := 0
	r, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		MaxVersions:        64,
		WALRetainSegments:  -1,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
		OnReplay:           func(kv.Cell) { replayed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if replayed != 11 {
		t.Errorf("recovery replayed %d cells, want 11 (10 folded + 1 tail)", replayed)
	}
	for i := 0; i < 10; i++ {
		c, ok, err := r.Get([]byte(fmt.Sprintf("k%02d", i)), kv.MaxTimestamp)
		if err != nil || !ok || string(c.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered k%02d = (%q, %v, %v)", i, c.Value, ok, err)
		}
	}
	if c, ok, _ := r.Get([]byte("k99"), kv.MaxTimestamp); !ok || string(c.Value) != "tail" {
		t.Fatalf("tail record lost in recovery: (%q, %v)", c.Value, ok)
	}
}

// TestSnapshotLoopRunsPeriodically: SnapshotInterval drives rounds without
// explicit calls.
func TestSnapshotLoopRunsPeriodically(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		WALRetainSegments:  -1,
		SnapshotInterval:   2 * time.Millisecond,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("k"), []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshotsTaken.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.snapshotsTaken.Load() == 0 {
		t.Fatal("periodic snapshot loop never took a round")
	}
}

// TestAsOfReadsRaceCompaction drives GetAsOf/ScanAsOf concurrently with
// writes, flushes and compactions (run under -race). Readers pin recent
// timestamps, so retention never invalidates their answers: every read must
// either succeed with the value written at that timestamp or — for the
// oldest ones — report ErrHistoryTrimmed, never a wrong value.
func TestAsOfReadsRaceCompaction(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS:                  fs,
		Dir:                 "tt",
		MaxVersions:         4,
		CompactionThreshold: 2,
		DisableScrub:        true,
		DisableAutoFlush:    true, // flushes are explicit below; compactions are not
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 8
	const rounds = 40
	var tsHigh int64 // highest fully written timestamp, shared with readers
	var mu sync.Mutex
	latest := map[int64]map[int]string{} // ts → key index → value at that ts

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				var ts int64
				for cand := range latest {
					if cand > ts {
						ts = cand
					}
				}
				state := latest[ts]
				mu.Unlock()
				if ts == 0 {
					continue
				}
				for k := 0; k < keys; k++ {
					c, ok, err := s.GetAsOf([]byte(fmt.Sprintf("k%d", k)), kv.Timestamp(ts))
					if errors.Is(err, ErrHistoryTrimmed) {
						continue // old ts raced past retention: honest refusal
					}
					if err != nil {
						t.Errorf("GetAsOf(k%d@%d): %v", k, ts, err)
						return
					}
					want, exists := state[k]
					if ok != exists || (ok && string(c.Value) != want) {
						t.Errorf("GetAsOf(k%d@%d) = (%q, %v), want (%q, %v)", k, ts, c.Value, ok, want, exists)
						return
					}
				}
				if _, err := s.ScanAsOf(nil, nil, kv.Timestamp(ts), 0); err != nil {
					t.Errorf("ScanAsOf(%d): %v", ts, err)
					return
				}
			}
		}()
	}

	for round := 1; round <= rounds; round++ {
		state := map[int]string{}
		mu.Lock()
		for k, v := range latest[tsHigh] {
			state[k] = v
		}
		mu.Unlock()
		ts := int64(round)
		for k := 0; k < keys; k++ {
			val := fmt.Sprintf("r%d", round)
			if err := s.Put([]byte(fmt.Sprintf("k%d", k)), []byte(val), kv.Timestamp(ts)); err != nil {
				t.Fatal(err)
			}
			state[k] = val
		}
		mu.Lock()
		latest[ts] = state
		tsHigh = ts
		mu.Unlock()
		if round%5 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	s.WaitCompactions()
}
