package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

func newTimeTravelStore(t testing.TB, fs vfs.FS) *Store {
	t.Helper()
	s, err := Open(Options{
		FS:                 fs,
		Dir:                "tt",
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGetAsOfAcrossComponents: as-of point reads (Get at a past timestamp)
// answer from memtable and SSTables alike, and a tombstone at ts means "did
// not exist then", not "trimmed".
func TestGetAsOfAcrossComponents(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTimeTravelStore(t, fs)
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
		c, ok, err := s.Get(key, kv.Timestamp(tc.ts))
		if err != nil {
			t.Fatalf("Get(ts=%d): %v", tc.ts, err)
		}
		if ok != tc.exist || (ok && string(c.Value) != tc.want) {
			t.Errorf("Get(ts=%d) = (%q, %v), want (%q, %v)", tc.ts, c.Value, ok, tc.want, tc.exist)
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
// state a model held at that instant, or, below the GC horizon the
// compaction raised, refuse; the latest-state scan is the as-of scan at the
// newest timestamp.
func TestScanAtEveryTimestamp(t *testing.T) {
	s := newTimeTravelStore(t, vfs.NewMemFS())
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
	if h := s.Horizon(); h != 6 {
		t.Fatalf("Horizon = %d, want 6, the compacted inputs' max timestamp", h)
	}
	for ts, want := range model {
		if ts < 6 {
			if _, err := s.Scan(nil, nil, kv.Timestamp(ts), 0); !errors.Is(err, ErrHistoryTrimmed) {
				t.Errorf("Scan(ts=%d) below the horizon: err = %v, want ErrHistoryTrimmed", ts, err)
			}
			continue
		}
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
	s := newTimeTravelStore(t, vfs.NewMemFS())
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
	// Compact merges every table, down to the bottom: the horizon rises to
	// 6 and every version but the newest drops.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []kv.Timestamp{1, 5} {
		if _, _, err := s.Get(key, ts); !errors.Is(err, ErrHistoryTrimmed) {
			t.Fatalf("Get(trimmed ts %d) err = %v, want ErrHistoryTrimmed", ts, err)
		}
	}
	// At and above the horizon the read is exact.
	c, ok, err := s.Get(key, 6)
	if err != nil || !ok || string(c.Value) != "v6" {
		t.Fatalf("Get(live ts) = (%q, %v, %v)", c.Value, ok, err)
	}
	// MaxTimestamp reads never report trimming.
	if _, ok, err := s.Get([]byte("nosuch"), kv.MaxTimestamp); err != nil || ok {
		t.Fatalf("Get(nosuch) = (%v, %v)", ok, err)
	}
}

// TestGetAsOfTrimInNonBottomRound: a compaction round that merges only the
// newer tables trims their older versions while an older table still holds
// a version below the trimmed ones. An as-of read at a trimmed timestamp
// must refuse, not fall through to that older version.
func TestGetAsOfTrimInNonBottomRound(t *testing.T) {
	s, err := Open(Options{
		FS:                 vfs.NewMemFS(),
		Dir:                "tt",
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
	for _, ts := range []kv.Timestamp{1, 3, 8} {
		if c, ok, err := s.Get(key, ts); !errors.Is(err, ErrHistoryTrimmed) {
			t.Fatalf("Get(k, %d) = (%q, %v, %v), want ErrHistoryTrimmed", ts, c.Value, ok, err)
		}
	}
	if c, ok, err := s.Get(key, 9); err != nil || !ok || string(c.Value) != "v9" {
		t.Fatalf("Get(k, 9) = (%q, %v, %v), want v9", c.Value, ok, err)
	}
}

// TestGetAsOfMaskedByDelete: a full compaction under a delete drops the
// versions the tombstone masks, so an as-of read below the delete finds
// nothing. It must refuse rather than report the key absent.
func TestGetAsOfMaskedByDelete(t *testing.T) {
	s := newTimeTravelStore(t, vfs.NewMemFS())
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
	if c, ok, err := s.Get(key, 2); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("Get(k, 2) = (%q, %v, %v), want ErrHistoryTrimmed", c.Value, ok, err)
	}
	if rows, err := s.Scan(nil, nil, 2, 0); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("Scan(ts=2) = (%+v, %v), want ErrHistoryTrimmed", rows, err)
	}
	if c, ok, err := s.Get(key, 3); err != nil || ok {
		t.Fatalf("Get(k, 3) = (%q, %v, %v), want absent: deleted at 3", c.Value, ok, err)
	}
}

// TestAsOfReadsRaceCompaction drives point reads and scans at past
// timestamps concurrently with writes, flushes and compactions (run under
// -race). Readers pick any recorded timestamp: every read must either
// answer with the state written at that timestamp or report
// ErrHistoryTrimmed, never a wrong value, and once the writes stop a read
// at the newest timestamp is never refused.
func TestAsOfReadsRaceCompaction(t *testing.T) {
	s, err := Open(Options{
		FS:               vfs.NewMemFS(),
		Dir:              "tt",
		CompactionFanIn:  2,
		DisableScrub:     true,
		DisableAutoFlush: true, // flushes are explicit below; compactions are not
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 8
	const rounds = 40
	var mu sync.Mutex
	var stamps []int64                   // recorded timestamps, ascending
	states := map[int64]map[int]string{} // ts → key index → value at that ts

	render := func(rows []ScanResult) string {
		out := ""
		for _, r := range rows {
			out += fmt.Sprintf("%s=%s ", r.Key, r.Value)
		}
		return out
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				if len(stamps) == 0 {
					mu.Unlock()
					continue
				}
				ts := stamps[len(stamps)-1]
				if n%2 == 1 {
					ts = stamps[(n*7+r)%len(stamps)]
				}
				state := states[ts]
				mu.Unlock()
				wantScan := ""
				for k := 0; k < keys; k++ {
					if v, ok := state[k]; ok {
						wantScan += fmt.Sprintf("k%d=%s ", k, v)
					}
				}
				for k := 0; k < keys; k++ {
					c, ok, err := s.Get([]byte(fmt.Sprintf("k%d", k)), kv.Timestamp(ts))
					if errors.Is(err, ErrHistoryTrimmed) {
						continue // below the horizon: an honest refusal
					}
					if err != nil {
						t.Errorf("Get(k%d@%d): %v", k, ts, err)
						return
					}
					want, exists := state[k]
					if ok != exists || (ok && string(c.Value) != want) {
						t.Errorf("Get(k%d@%d) = (%q, %v), want (%q, %v)", k, ts, c.Value, ok, want, exists)
						return
					}
				}
				rows, err := s.Scan(nil, nil, kv.Timestamp(ts), 0)
				if errors.Is(err, ErrHistoryTrimmed) {
					continue
				}
				if err != nil || render(rows) != wantScan {
					t.Errorf("Scan(ts=%d) = (%s, %v), want %s", ts, render(rows), err, wantScan)
					return
				}
			}
		}(r)
	}

	state := map[int]string{}
	for round := 1; round <= rounds; round++ {
		next := map[int]string{}
		for k, v := range state {
			next[k] = v
		}
		ts := int64(round)
		for k := 0; k < keys; k++ {
			if (k+round)%5 == 0 { // some keys are deleted, to be re-put later
				if err := s.Delete([]byte(fmt.Sprintf("k%d", k)), kv.Timestamp(ts)); err != nil {
					t.Fatal(err)
				}
				delete(next, k)
				continue
			}
			val := fmt.Sprintf("r%d", round)
			if err := s.Put([]byte(fmt.Sprintf("k%d", k)), []byte(val), kv.Timestamp(ts)); err != nil {
				t.Fatal(err)
			}
			next[k] = val
		}
		state = next
		mu.Lock()
		states[ts] = next
		stamps = append(stamps, ts)
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
	for k := 0; k < keys; k++ {
		c, ok, err := s.Get([]byte(fmt.Sprintf("k%d", k)), rounds)
		if want, exists := state[k]; err != nil || ok != exists || string(c.Value) != want {
			t.Errorf("Get(k%d@%d) = (%q, %v, %v), want (%q, %v)", k, rounds, c.Value, ok, err, want, exists)
		}
	}
}

// TestCompactionOnlyRefuses: across seeded histories of puts and deletes,
// flushes, tiered and major compactions and reopens, a read at a fixed
// timestamp that answered before a compaction answers the same after it,
// or is refused with ErrHistoryTrimmed. Each history must also see a read
// answer exactly after the horizon moved past the moment it was first
// taken, so the test cannot pass by refusing everything.
func TestCompactionOnlyRefuses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.NewMemFS()
		s := newTimeTravelStore(t, fs)
		answer := func(key string, ts kv.Timestamp) string {
			c, ok, err := s.Get([]byte(key), ts)
			if errors.Is(err, ErrHistoryTrimmed) {
				return "refused"
			}
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%q %v", c.Value, ok)
		}
		type probe struct {
			key  string
			ts   kv.Timestamp
			want string
			h0   kv.Timestamp // the horizon when the probe was first read
		}
		var probes []probe
		exact := 0
		for ts := kv.Timestamp(1); ts <= 200; ts++ {
			key := fmt.Sprintf("k%d", rng.Intn(5))
			var err error
			if rng.Intn(4) == 0 {
				err = s.Delete([]byte(key), ts)
			} else {
				err = s.Put([]byte(key), []byte(fmt.Sprint("v", ts)), ts)
			}
			if err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(12) {
			case 0, 1, 2:
				err = s.Flush()
			case 3:
				_, err = s.CompactOnce()
			case 4:
				err = s.Compact()
			case 5:
				if err = s.Close(); err == nil {
					s = newTimeTravelStore(t, fs)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range probes {
				got := answer(probes[i].key, probes[i].ts)
				if got != probes[i].want && got != "refused" {
					t.Fatalf("seed %d ts %d: Get(%s@%d) = %s, answered %s before", seed, ts, probes[i].key, probes[i].ts, got, probes[i].want)
				}
				if got != "refused" && s.Horizon() > probes[i].h0 {
					exact++ // a compaction since the first read left it exact
				}
				probes[i].want = got
			}
			at := ts // the present, or any moment before it
			if rng.Intn(2) == 0 {
				at = 1 + kv.Timestamp(rng.Int63n(int64(ts)))
			}
			key = fmt.Sprintf("k%d", rng.Intn(5))
			probes = append(probes, probe{key, at, answer(key, at), s.Horizon()})
		}
		s.Close()
		if exact == 0 {
			t.Fatalf("seed %d: no read answered exactly after a compaction raised the horizon", seed)
		}
	}
}

// TestHorizonSurvivesReopen: the GC horizon a compaction raised is restored
// when the store reopens, also after a bottom round that dropped every cell
// it read and so wrote an empty table.
func TestHorizonSurvivesReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTimeTravelStore(t, fs)
	key := []byte("k")
	if err := s.Put(key, []byte("v1"), 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 || s.tables[0].r.EntryCount() != 0 {
		t.Fatalf("after the bottom round: %d tables, want one empty one", s.TableCount())
	}
	for round := 0; round < 2; round++ {
		if h := s.Horizon(); h != 20 {
			t.Fatalf("round %d: Horizon = %d, want 20", round, h)
		}
		if c, ok, err := s.Get(key, 15); !errors.Is(err, ErrHistoryTrimmed) {
			t.Fatalf("round %d: Get(k, 15) = (%q, %v, %v), want ErrHistoryTrimmed", round, c.Value, ok, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = newTimeTravelStore(t, fs)
	}
	// A later flush and compaction carry the horizon forward.
	if err := s.Put(key, []byte("v2"), 30); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if h := s.Horizon(); h != 30 {
		t.Fatalf("Horizon after a second round = %d, want 30", h)
	}
	s.Close()
}
