package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

func newTimeTravelStore(t testing.TB, fs vfs.FS, maxVersions int) *Store {
	t.Helper()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		MaxVersions:        maxVersions,
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

	// Scan at a timestamp agrees with the point reads.
	rows, err := s.Scan(nil, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Value) != "v2" || rows[0].Ts != 2 {
		t.Errorf("Scan(ts=2) = %+v", rows)
	}
	rows, err = s.Scan(nil, nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("Scan(ts=3) = %+v, want empty (deleted)", rows)
	}
}

// TestScanAtEveryTimestamp: an as-of scan is Scan with a timestamp. A
// put/overwrite/delete history spread over a compacted table, a flushed
// table and the memtable must scan, at every timestamp it recorded, to the
// state a model held at that instant; the latest-state scan is the as-of
// scan at the newest timestamp. The compaction runs before the deletes:
// merging a tombstone with the versions it masks garbage-collects them, and
// which history survives is retention's business, not the read path's.
func TestScanAtEveryTimestamp(t *testing.T) {
	s := newTimeTravelStore(t, vfs.NewMemFS(), 16)
	defer s.Close()

	type version struct {
		val string
		ts  kv.Timestamp
	}
	steps := []struct {
		key, val string // val "" = delete
		then     string // "flush" or "compact" after the write
	}{
		{"a", "a1", ""},
		{"b", "b2", ""},
		{"a", "a3", "flush"},
		{"c", "c4", ""},
		{"b", "b5", "flush"},
		{"d", "d6", "compact"},
		{"a", "", ""},
		{"e", "e8", "flush"},
		{"a", "a9", ""},
		{"c", "", ""},
		{"b", "b11", ""},
	}
	state := map[string]version{}
	model := []map[string]version{{}} // model[ts] = visible state at ts
	for i, st := range steps {
		ts := kv.Timestamp(i + 1)
		var err error
		if st.val == "" {
			err = s.Delete([]byte(st.key), ts)
			delete(state, st.key)
		} else {
			err = s.Put([]byte(st.key), []byte(st.val), ts)
			state[st.key] = version{st.val, ts}
		}
		if err != nil {
			t.Fatal(err)
		}
		switch st.then {
		case "flush":
			err = s.Flush()
		case "compact":
			if err = s.Flush(); err == nil {
				err = s.Compact()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		at := make(map[string]version, len(state))
		for k, v := range state {
			at[k] = v
		}
		model = append(model, at)
	}
	if n := s.TableCount(); n != 2 {
		t.Fatalf("store has %d tables, want a compacted one and a flushed one", n)
	}

	render := func(rows []ScanResult) string {
		out := ""
		for _, r := range rows {
			out += fmt.Sprintf("%s=%s@%d ", r.Key, r.Value, r.Ts)
		}
		return out
	}
	for ts, want := range model {
		var wantRows []ScanResult
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if v, ok := want[k]; ok {
				wantRows = append(wantRows, ScanResult{Key: []byte(k), Value: []byte(v.val), Ts: v.ts})
			}
		}
		got, err := s.Scan(nil, nil, kv.Timestamp(ts), 0)
		if err != nil {
			t.Fatalf("Scan(ts=%d): %v", ts, err)
		}
		if render(got) != render(wantRows) {
			t.Errorf("Scan(ts=%d) = %s, want %s", ts, render(got), render(wantRows))
		}
	}
	latest, err := s.Scan(nil, nil, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	asOf, err := s.Scan(nil, nil, kv.Timestamp(len(steps)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(latest) != render(asOf) || len(latest) == 0 {
		t.Errorf("Scan(MaxTimestamp) = %s, as-of the newest ts = %s", render(latest), render(asOf))
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

// TestGetAsOfTrimInNonBottomRound: a compaction round that merges only the
// newer tables trims their versions past MaxVersions while an older table
// still holds a version below the trimmed ones. An as-of read at a trimmed
// timestamp must refuse, not fall through to that older version.
func TestGetAsOfTrimInNonBottomRound(t *testing.T) {
	s, err := Open(Options{
		FS:                 vfs.NewMemFS(),
		Dir:                "tt",
		MaxVersions:        4,
		CompactionFanIn:    2,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := []byte("k")
	put := func(k []byte, val string, ts int) {
		t.Helper()
		if err := s.Put(k, []byte(val), kv.Timestamp(ts)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Table A: v1@1 plus filler, so the picker leaves it out as the largest.
	put(key, "v1", 1)
	for i := 0; i < 200; i++ {
		put([]byte(fmt.Sprintf("filler%03d", i)), "x", 1)
	}
	flush()
	// Table B: v2..v5; table C: v6..v9.
	for ts := 2; ts <= 9; ts++ {
		put(key, fmt.Sprintf("v%d", ts), ts)
		if ts == 5 || ts == 9 {
			flush()
		}
	}
	ran, err := s.CompactOnce()
	if err != nil || !ran {
		t.Fatalf("CompactOnce = (%v, %v)", ran, err)
	}
	if n := s.TableCount(); n != 2 {
		t.Fatalf("store has %d tables, want A plus the merge of B and C", n)
	}
	if c, ok, err := s.GetAsOf(key, 3); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("GetAsOf(k, 3) = (%q, %v, %v), want ErrHistoryTrimmed", c.Value, ok, err)
	}
	if c, ok, err := s.GetAsOf(key, 9); err != nil || !ok || string(c.Value) != "v9" {
		t.Fatalf("GetAsOf(k, 9) = (%q, %v, %v), want v9", c.Value, ok, err)
	}
}

// TestGetAsOfMaskedByDelete: a full compaction under a delete drops the
// versions the tombstone masks, so an as-of read below the delete finds
// nothing. It must refuse rather than report the key absent.
func TestGetAsOfMaskedByDelete(t *testing.T) {
	t.Skip("masked-drop history loss: needs the GC horizon, ROADMAP item 1 step 2")
	s := newTimeTravelStore(t, vfs.NewMemFS(), 3)
	defer s.Close()
	key := []byte("k")
	for ts, write := range []func(kv.Timestamp) error{
		func(ts kv.Timestamp) error { return s.Put(key, []byte("v1"), ts) },
		func(ts kv.Timestamp) error { return s.Put(key, []byte("v2"), ts) },
		func(ts kv.Timestamp) error { return s.Delete(key, ts) },
	} {
		if err := write(kv.Timestamp(ts + 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	c, ok, err := s.GetAsOf(key, 2)
	if !errors.Is(err, ErrHistoryTrimmed) && !(ok && string(c.Value) == "v2") {
		t.Fatalf("GetAsOf(k, 2) = (%q, %v, %v), want v2 or ErrHistoryTrimmed", c.Value, ok, err)
	}
}

// TestAsOfReadsRaceCompaction drives GetAsOf/Scan-at-ts concurrently with
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
				if _, err := s.Scan(nil, nil, kv.Timestamp(ts), 0); err != nil {
					t.Errorf("Scan(ts=%d): %v", ts, err)
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
