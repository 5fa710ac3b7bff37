package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/memtable"
	"diffindex/internal/sstable"
	"diffindex/internal/vfs"
)

// TestMultiGetMatchesGet checks over random histories (randomHistory) that
// every batch MultiGet answers equals per-key Get: sorted, reversed, with
// duplicates, with absent keys, at MaxTimestamp and below the newest
// versions.
func TestMultiGetMatchesGet(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runMultiGetMatchesGet(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// randomHistory builds a store over keys key(0)…key(rows-1) with random
// histories in the memtable, an immutable memtable and at least 8 tables —
// with flushes, one compaction, t−δ deletes and a tombstone beside a put at
// one timestamp. It returns the store and the newest timestamp written;
// every timestamp is above 1000.
func randomHistory(t *testing.T, rng *rand.Rand, rows int, key func(int) []byte) (*Store, kv.Timestamp) {
	s, err := Open(Options{
		FS: vfs.NewMemFS(), Dir: "store",
		BlockCache:         sstable.NewBlockCache(1 << 20),
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	ts := kv.Timestamp(1000)
	write := func(n int) {
		for ; n > 0; n-- {
			k := key(rng.Intn(rows))
			ts += 2
			v := []byte(fmt.Sprintf("value-%d-padded-to-fill-blocks", ts))
			var err error
			switch rng.Intn(10) {
			case 0: // a delete below the key's newest version (t−δ)
				err = s.Delete(k, ts-kv.Timestamp(1+rng.Intn(40)))
			case 1: // a put and a tombstone at one timestamp
				if err = s.Put(k, v, ts); err == nil {
					err = s.Delete(k, ts)
				}
			default:
				err = s.Put(k, v, ts)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 12; round++ {
		write(250)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 5 {
			if ran, err := s.CompactOnce(); err != nil || !ran {
				t.Fatalf("CompactOnce = %v, %v", ran, err)
			}
		}
	}
	if n := s.TableCount(); n < 8 {
		t.Fatalf("%d tables, want at least 8", n)
	}
	// An immutable memtable, as a flush holds one between its swap and the
	// install of its table, and a live memtable above it.
	write(150)
	s.mu.Lock()
	s.imm = append([]*memtable.Memtable{s.mem}, s.imm...)
	s.mem = memtable.New()
	s.mu.Unlock()
	write(150)
	return s, ts
}

// pastTs picks a past timestamp at or above s's GC horizon and below last,
// after checking that a batch read below the horizon is refused.
func pastTs(t *testing.T, rng *rand.Rand, s *Store, last kv.Timestamp) kv.Timestamp {
	t.Helper()
	h := s.Horizon()
	if h <= 1000 || h >= last {
		t.Fatalf("horizon %d, want one inside the history (1000, %d)", h, last)
	}
	if err := s.MultiGet([][]byte{[]byte("k")}, h-1, make([]GetResult, 1)); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("MultiGet below the horizon: err = %v, want ErrHistoryTrimmed", err)
	}
	if _, err := s.MultiScan([]ScanRange{{}}, h-1, 0); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("MultiScan below the horizon: err = %v, want ErrHistoryTrimmed", err)
	}
	return h + kv.Timestamp(rng.Int63n(int64(last-h)))
}

func runMultiGetMatchesGet(t *testing.T, rng *rand.Rand) {
	const rows = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%05d", i)) }
	s, ts := randomHistory(t, rng, rows, key)

	check := func(what string, keys [][]byte, at kv.Timestamp) {
		t.Helper()
		out := make([]GetResult, len(keys))
		if err := s.MultiGet(keys, at, out); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			want, ok, err := s.Get(k, at)
			if err != nil {
				t.Fatal(err)
			}
			got := out[i]
			if got.Found != ok || string(got.Cell.Key) != string(want.Key) ||
				string(got.Cell.Value) != string(want.Value) || got.Cell.Ts != want.Ts || got.Cell.Kind != want.Kind {
				t.Fatalf("%s at %d: key %d %q: MultiGet %v %v, Get %v %v", what, at, i, k, got.Cell, got.Found, want, ok)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		at := kv.MaxTimestamp
		if trial%2 == 1 {
			at = pastTs(t, rng, s, ts)
		}
		lo := rng.Intn(rows - 20)
		var adjacent [][]byte
		for i := lo; i < lo+20; i++ {
			adjacent = append(adjacent, key(i))
		}
		check("sorted", adjacent, at)
		check("reversed", reversed(adjacent), at)

		var mixed [][]byte
		for i := 0; i < 30; i++ {
			k := key(rng.Intn(rows))
			mixed = append(mixed, k, k) // each key twice
		}
		mixed = append(mixed,
			[]byte("a"), []byte("zzz"), []byte("row"), // outside every table
			[]byte(fmt.Sprintf("row%05dx", lo)), // between two rows
			key(rows+7),                         // past the last row
		)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		check("duplicates and absent keys", mixed, at)
		check("one key", mixed[:1], at)
	}
}

// TestMultiScanMatchesScan checks over random histories of three-column
// rows (randomHistory) that every range of a MultiScan batch answers as a
// Scan of that range alone: overlapping ranges, one-part (whole-row)
// ranges, empty and open-ended ones, at MaxTimestamp and below the newest
// versions, unlimited and with limits. The batch records one store-scan
// sample per range.
func TestMultiScanMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const rows = 150
			row := func(i int) []byte { return []byte(fmt.Sprintf("row%04d", i)) }
			key := func(i int) []byte { return kv.BaseKey(row(i/3), []byte{'a' + byte(i%3)}) }
			s, last := randomHistory(t, rng, 3*rows, key)
			for trial := 0; trial < 40; trial++ {
				at := kv.MaxTimestamp
				if trial%2 == 1 {
					at = pastTs(t, rng, s, last)
				}
				limit := []int{0, 1, 4}[trial%3]
				var ranges []ScanRange
				for len(ranges) < 12 {
					switch rng.Intn(5) {
					case 0: // one part: a whole row, maybe one absent from every table
						p := kv.RowPrefix(row(rng.Intn(rows + 10)))
						ranges = append(ranges, ScanRange{Start: p, End: kv.PrefixSuccessor(p)})
					case 1: // empty
						k := key(rng.Intn(3 * rows))
						ranges = append(ranges, ScanRange{Start: k, End: k})
					case 2: // open-ended
						ranges = append(ranges, ScanRange{Start: key(rng.Intn(3 * rows))})
					default: // across rows, overlapping the others
						a, b := rng.Intn(3*rows), rng.Intn(3*rows)
						ranges = append(ranges, ScanRange{Start: key(min(a, b)), End: key(max(a, b))})
					}
				}
				samples := s.stageScan.Count()
				got, err := s.MultiScan(ranges, at, limit)
				if err != nil {
					t.Fatal(err)
				}
				if n := s.stageScan.Count() - samples; n != int64(len(ranges)) {
					t.Fatalf("%d store-scan samples for %d ranges", n, len(ranges))
				}
				for i, r := range ranges {
					want, err := s.Scan(r.Start, r.End, at, limit)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got[i], want, func(a, b ScanResult) bool {
						return string(a.Key) == string(b.Key) && string(a.Value) == string(b.Value) && a.Ts == b.Ts
					}) {
						t.Fatalf("trial %d range %d [%q, %q) at %d limit %d:\nMultiScan %v\nScan      %v", trial, i, r.Start, r.End, at, limit, got[i], want)
					}
				}
			}
		})
	}
}

func reversed(keys [][]byte) [][]byte {
	out := slices.Clone(keys)
	slices.Reverse(out)
	return out
}

// TestMultiGetRacesFlushAndCompaction reads batches while flushes and
// compaction rounds retire tables under them and Close lands among them. A
// batch returns ErrClosed or, for every key, a value at least as new as the
// key's last write acknowledged before the batch started.
func TestMultiGetRacesFlushAndCompaction(t *testing.T) {
	s, err := Open(Options{
		FS:                  vfs.NewMemFS(),
		Dir:                 "mg",
		CompactionThreshold: 2,
		DisableScrub:        true,
		DisableAutoFlush:    true, // flushes are explicit below; compactions are not
	})
	if err != nil {
		t.Fatal(err)
	}

	const keys = 64
	const rounds = 80
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	var mu sync.Mutex
	written := make([]int, keys) // key → round of its last acknowledged write

	var started, wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		started.Add(1)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for first := true; ; first = false {
				lo := rng.Intn(keys - 20)
				batch := make([][]byte, 20)
				floors := make([]int, len(batch))
				mu.Lock()
				for j := range batch {
					batch[j], floors[j] = key(lo+j), written[lo+j]
				}
				mu.Unlock()
				if seed == 1 { // an unsorted batch
					slices.Reverse(batch)
					slices.Reverse(floors)
				}
				out := make([]GetResult, len(batch))
				err := s.MultiGet(batch, kv.MaxTimestamp, out)
				if first {
					started.Done()
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("MultiGet: %v", err)
					return
				}
				for j, res := range out {
					if floors[j] == 0 {
						continue // the first write may be landing
					}
					var round int
					if _, err := fmt.Sscanf(string(res.Cell.Value), "v%d", &round); !res.Found || err != nil || round < floors[j] {
						t.Errorf("%s acknowledged in round %d: read %q found=%v", batch[j], floors[j], res.Cell.Value, res.Found)
						return
					}
				}
			}
		}(int64(r))
	}
	started.Wait()

	// Errors here are reported, not fatal: Close below must still stop the
	// readers.
	for round := 1; round <= rounds && !t.Failed(); round++ {
		for i := round % 4; i < keys; i += 4 {
			if err := s.Put(key(i), []byte(fmt.Sprintf("v%d", round)), kv.Timestamp(round)); err != nil {
				t.Errorf("Put: %v", err)
			}
			mu.Lock()
			written[i] = round
			mu.Unlock()
		}
		if err := s.Flush(); err != nil {
			t.Errorf("Flush: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// multiGetStore builds a store of 8 overlapping tables under a warm block
// cache; every key has a version in each table and the newest in the last.
func multiGetStore(t testing.TB) (*Store, [][]byte) {
	s, err := Open(Options{
		FS: vfs.NewMemFS(), Dir: "store",
		BlockCache:         sstable.NewBlockCache(16 << 20),
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("row%05d", i))
	}
	for table := 1; table <= 8; table++ {
		for _, k := range keys {
			if err := s.Put(k, []byte(fmt.Sprintf("value-%d", table)), kv.Timestamp(table)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, keys
}

// TestMultiGetAllocs pins the batch's allocation budget: a one-key
// MultiGet allocates no more than Get, and a batch of 20 adjacent keys at
// most half of what 20 Gets do.
func TestMultiGetAllocs(t *testing.T) {
	s, keys := multiGetStore(t)
	defer s.Close()
	out := make([]GetResult, 20)

	get := testing.AllocsPerRun(100, func() { s.Get(keys[100], kv.MaxTimestamp) })
	one := testing.AllocsPerRun(100, func() { s.MultiGet(keys[100:101], kv.MaxTimestamp, out) })
	if one > get {
		t.Errorf("one-key MultiGet: %.0f allocations, Get: %.0f", one, get)
	}
	gets := testing.AllocsPerRun(100, func() {
		for _, k := range keys[100:120] {
			s.Get(k, kv.MaxTimestamp)
		}
	})
	batch := testing.AllocsPerRun(100, func() { s.MultiGet(keys[100:120], kv.MaxTimestamp, out) })
	if batch > gets/2 {
		t.Errorf("20-key MultiGet: %.0f allocations, 20 Gets: %.0f", batch, gets)
	}
}

// BenchmarkStoreMultiGet reads 20 adjacent keys as one batch and as 20
// Gets.
func BenchmarkStoreMultiGet(b *testing.B) {
	s, keys := multiGetStore(b)
	defer s.Close()
	out := make([]GetResult, 20)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i % (len(keys) - 20)
			if err := s.MultiGet(keys[lo:lo+20], kv.MaxTimestamp, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i % (len(keys) - 20)
			for _, k := range keys[lo : lo+20] {
				if _, _, err := s.Get(k, kv.MaxTimestamp); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
