package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"diffindex/internal/kv"
)

func TestPutGetNewestVisible(t *testing.T) {
	m := New()
	key := []byte("row1\x00col")
	m.Put(key, []byte("v1"), 10)
	m.Put(key, []byte("v2"), 20)
	m.Put(key, []byte("v3"), 30)

	cases := []struct {
		ts    kv.Timestamp
		want  string
		found bool
	}{
		{5, "", false},
		{10, "v1", true},
		{15, "v1", true},
		{20, "v2", true},
		{29, "v2", true},
		{30, "v3", true},
		{kv.MaxTimestamp, "v3", true},
	}
	for _, c := range cases {
		cell, ok := m.Get(key, c.ts)
		if ok != c.found {
			t.Errorf("Get(ts=%d) found=%v, want %v", c.ts, ok, c.found)
			continue
		}
		if ok && string(cell.Value) != c.want {
			t.Errorf("Get(ts=%d) = %q, want %q", c.ts, cell.Value, c.want)
		}
	}
}

func TestDeleteMasksOlderVersions(t *testing.T) {
	m := New()
	key := []byte("k")
	m.Put(key, []byte("v1"), 10)
	m.Delete(key, 20)
	m.Put(key, []byte("v2"), 30)

	if c, ok := m.Get(key, 15); !ok || c.Tombstone() || string(c.Value) != "v1" {
		t.Errorf("ts=15: %+v ok=%v", c, ok)
	}
	if c, ok := m.Get(key, 25); !ok || !c.Tombstone() {
		t.Errorf("ts=25 must see tombstone: %+v ok=%v", c, ok)
	}
	if c, ok := m.Get(key, 35); !ok || c.Tombstone() || string(c.Value) != "v2" {
		t.Errorf("ts=35: %+v ok=%v", c, ok)
	}
}

func TestDeleteAndPutSameTimestamp(t *testing.T) {
	// A tombstone at ts T must mask a put at the same T (HBase rule).
	m := New()
	key := []byte("k")
	m.Put(key, []byte("v"), 10)
	m.Delete(key, 10)
	if c, ok := m.Get(key, 10); !ok || !c.Tombstone() {
		t.Errorf("delete must win at equal ts: %+v ok=%v", c, ok)
	}
}

func TestIdempotentReplay(t *testing.T) {
	// Re-adding an identical cell (same key, ts, kind) must be a no-op with
	// respect to reads — the paper's recovery protocol depends on this.
	m := New()
	c := kv.Cell{Key: []byte("k"), Value: []byte("v"), Ts: 7, Kind: kv.KindPut}
	m.Add(c)
	m.Add(c)
	m.Add(c)
	if m.Len() != 1 {
		t.Errorf("Len = %d after idempotent re-adds, want 1", m.Len())
	}
	got, ok := m.Get([]byte("k"), 7)
	if !ok || string(got.Value) != "v" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
}

func TestGetMissingAndPrefixKeys(t *testing.T) {
	m := New()
	m.Put([]byte("abc"), []byte("v"), 5)
	if _, ok := m.Get([]byte("ab"), 100); ok {
		t.Error("prefix of a stored key must not be found")
	}
	if _, ok := m.Get([]byte("abcd"), 100); ok {
		t.Error("extension of a stored key must not be found")
	}
	if _, ok := m.Get([]byte("zzz"), 100); ok {
		t.Error("missing key must not be found")
	}
}

func TestIteratorOrder(t *testing.T) {
	m := New()
	m.Put([]byte("b"), []byte("b10"), 10)
	m.Put([]byte("a"), []byte("a20"), 20)
	m.Put([]byte("a"), []byte("a10"), 10)
	m.Delete([]byte("b"), 20)

	it := m.Iterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		c := it.Cell()
		got = append(got, fmt.Sprintf("%s@%d/%s", c.Key, c.Ts, c.Kind))
	}
	want := []string{"a@20/put", "a@10/put", "b@20/delete", "b@10/put"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIteratorSeekVersion(t *testing.T) {
	m := New()
	for ts := kv.Timestamp(1); ts <= 5; ts++ {
		m.Put([]byte("k"), []byte{byte('0' + ts)}, ts)
	}
	it := m.Iterator()
	it.SeekVersion([]byte("k"), 3)
	if !it.Valid() {
		t.Fatal("SeekVersion found nothing")
	}
	if c := it.Cell(); c.Ts != 3 {
		t.Errorf("SeekVersion landed on ts=%d, want 3", c.Ts)
	}
}

func TestApproximateBytesGrows(t *testing.T) {
	m := New()
	before := m.ApproximateBytes()
	m.Put(bytes.Repeat([]byte("k"), 100), bytes.Repeat([]byte("v"), 1000), 1)
	if m.ApproximateBytes() < before+1100 {
		t.Errorf("ApproximateBytes %d did not grow by payload size", m.ApproximateBytes())
	}
}

// TestModelEquivalence drives the memtable and a model map with random
// versioned writes and compares reads at random timestamps.
func TestModelEquivalence(t *testing.T) {
	type version struct {
		ts  kv.Timestamp
		val string
		del bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		model := map[string][]version{}
		keys := []string{"a", "b", "c", "d"}
		for op := 0; op < 200; op++ {
			k := keys[rng.Intn(len(keys))]
			ts := kv.Timestamp(rng.Intn(100) + 1)
			if rng.Intn(4) == 0 {
				m.Delete([]byte(k), ts)
				model[k] = append(model[k], version{ts: ts, del: true})
			} else {
				v := fmt.Sprintf("%s@%d#%d", k, ts, op)
				m.Put([]byte(k), []byte(v), ts)
				// Same key+ts put overwrites in both model and memtable.
				model[k] = append(model[k], version{ts: ts, val: v})
			}
		}
		for _, k := range keys {
			for ts := kv.Timestamp(0); ts <= 101; ts++ {
				// Model lookup: newest version ≤ ts; delete wins ties and
				// masks; the latest write wins among equal (ts, kind).
				vs := model[k]
				var best *version
				for i := range vs {
					v := &vs[i]
					if v.ts > ts {
						continue
					}
					if best == nil || v.ts > best.ts {
						best = v
					} else if v.ts == best.ts {
						if v.del == best.del {
							best = v // later write overwrites
						} else if v.del {
							best = v // tombstone wins the tie
						}
					}
				}
				cell, ok := m.Get([]byte(k), ts)
				if best == nil {
					if ok {
						return false
					}
					continue
				}
				if !ok || cell.Ts != best.ts || cell.Tombstone() != best.del {
					return false
				}
				if !best.del && string(cell.Value) != best.val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	m := New()
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers iterate while writers insert.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := m.Iterator()
				prev := []byte(nil)
				for it.SeekToFirst(); it.Valid(); it.Next() {
					k := it.InternalKey()
					if prev != nil && kv.CompareInternal(prev, k) > 0 {
						t.Error("iterator out of order under concurrency")
						return
					}
					prev = append(prev[:0], k...)
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%d-k%06d", w, i))
				m.Put(key, []byte("v"), kv.Timestamp(i+1))
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for w := 0; w < writers; w++ {
		// no-op: writers tracked by wg
	}
	// Close stop once writer goroutines have finished their inserts.
	go func() {
		// The writers are part of wg along with readers; poll Len instead.
		for m.Len() < writers*per {
			// busy-wait is fine for a test
		}
		close(stop)
	}()
	<-done
	if m.Len() != writers*per {
		t.Errorf("Len = %d, want %d", m.Len(), writers*per)
	}
	// Verify all entries present.
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, per / 2, per - 1} {
			key := []byte(fmt.Sprintf("w%d-k%06d", w, i))
			if _, ok := m.Get(key, kv.MaxTimestamp); !ok {
				t.Errorf("missing %s", key)
			}
		}
	}
}

func TestSkiplistRandomOrderedInsert(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(7))
	var keys []string
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%010d", rng.Intn(1_000_000))
		keys = append(keys, k)
		m.Put([]byte(k), []byte("v"), 1)
	}
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	it := m.Iterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		c := it.Cell()
		if i >= len(uniq) || string(c.Key) != uniq[i] {
			t.Fatalf("position %d: got %q", i, c.Key)
		}
		i++
	}
	if i != len(uniq) {
		t.Errorf("iterated %d entries, want %d", i, len(uniq))
	}
}

func BenchmarkMemtablePut(b *testing.B) {
	m := New()
	key := make([]byte, 16)
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(key, fmt.Sprintf("%016d", i))
		m.Put(key, val, kv.Timestamp(i+1))
	}
}

// BenchmarkMemtablePutRandom inserts shuffled row⊕column keys into a
// memtable kept near 256 KiB, so each insert searches a list of the size a
// region flushes at rather than appending at its tail.
func BenchmarkMemtablePutRandom(b *testing.B) {
	const rows = 1 << 14
	keys := make([][]byte, rows)
	for i, r := range rand.New(rand.NewSource(1)).Perm(rows) {
		keys[i] = kv.BaseKey([]byte(fmt.Sprintf("user%08d", r)), []byte("title"))
	}
	val := make([]byte, 100)
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ApproximateBytes() >= 256<<10 {
			b.StopTimer()
			m = New()
			b.StartTimer()
		}
		m.Put(keys[i%rows], val, kv.Timestamp(i+1))
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := New()
	const n = 100000
	for i := 0; i < n; i++ {
		m.Put([]byte(fmt.Sprintf("%016d", i)), []byte("value"), kv.Timestamp(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("%016d", i%n)), kv.MaxTimestamp)
	}
}

func TestValueLargerThanChunk(t *testing.T) {
	m := New()
	big := bytes.Repeat([]byte("0123456789"), chunkBytes/10+100)
	m.Put([]byte("a"), []byte("small-a"), 1)
	m.Put([]byte("b"), big, 1)
	m.Put([]byte("c"), []byte("small-c"), 1) // a small value after the big one
	if c, ok := m.Get([]byte("b"), 1); !ok || !bytes.Equal(c.Value, big) {
		t.Fatalf("Get of a %d-byte value: ok=%v len=%d", len(big), ok, len(c.Value))
	}
	want := map[string][]byte{"a": []byte("small-a"), "b": big, "c": []byte("small-c")}
	it := m.Iterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		c := it.Cell()
		if !bytes.Equal(c.Value, want[string(c.Key)]) {
			t.Errorf("iterator %q: value of %d bytes, want %d", c.Key, len(c.Value), len(want[string(c.Key)]))
		}
		n++
	}
	if n != len(want) {
		t.Errorf("iterated %d cells, want %d", n, len(want))
	}
}

func TestValueIsCopied(t *testing.T) {
	m := New()
	key, val := []byte("k"), []byte("value")
	m.Put(key, val, 1)
	m.Add(kv.Cell{Key: []byte("k2"), Value: val, Ts: 1, Kind: kv.KindPut})
	copy(val, "XXXXX")
	key[0] = 'z'
	for _, k := range []string{"k", "k2"} {
		if c, ok := m.Get([]byte(k), 1); !ok || string(c.Value) != "value" {
			t.Errorf("Get(%s) after the caller reused its buffers = %q, %v", k, c.Value, ok)
		}
	}
	// An append to a returned slice must not reach the arena either.
	c, _ := m.Get([]byte("k"), 1)
	_ = append(c.Key, 'x')
	_ = append(c.Value, 'x')
	for _, k := range []string{"k", "k2"} {
		if c2, ok := m.Get([]byte(k), 1); !ok || string(c2.Value) != "value" {
			t.Errorf("Get(%s) after appends to returned slices = %q, %v", k, c2.Value, ok)
		}
	}
}

func TestIdempotentOverwriteSeenByIterator(t *testing.T) {
	m := New()
	m.Add(kv.Cell{Key: []byte("k"), Value: []byte("first"), Ts: 7, Kind: kv.KindPut})
	m.Add(kv.Cell{Key: []byte("k"), Value: []byte("second"), Ts: 7, Kind: kv.KindPut})
	it := m.Iterator()
	it.SeekToFirst()
	if !it.Valid() || string(it.Cell().Value) != "second" {
		t.Fatalf("iterator after overwrite: valid=%v", it.Valid())
	}
	if it.Next(); it.Valid() {
		t.Errorf("overwrite added a second entry: %v", it.Cell())
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

// TestReadsRaceArenaGrowth runs readers and iterators while one writer
// inserts in random order across several node blocks and data chunks.
// Every key the writer has acknowledged must be visible, and iteration must
// stay ordered.
func TestReadsRaceArenaGrowth(t *testing.T) {
	const n = 4 * blockNodes
	val := bytes.Repeat([]byte("v"), 4*chunkBytes/n+1) // ≥ 4 data chunks in all
	perm := rand.New(rand.NewSource(1)).Perm(n)
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%06d\x00col", i)) }
	m := New()
	var acked atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				a := int(acked.Load())
				if a > 0 {
					j := perm[rng.Intn(a)]
					if c, ok := m.Get(key(j), kv.MaxTimestamp); !ok || !bytes.Equal(c.Value, val) {
						t.Errorf("acknowledged key %d not visible (ok=%v)", j, ok)
						return
					}
				}
				if r == 0 {
					it := m.Iterator()
					var prev []byte
					seen := 0
					for it.SeekToFirst(); it.Valid(); it.Next() {
						k := it.InternalKey()
						if prev != nil && kv.CompareInternal(prev, k) >= 0 {
							t.Error("iterator out of order while the arena grows")
							return
						}
						prev = append(prev[:0], k...)
						seen++
					}
					if seen < a {
						t.Errorf("iterator saw %d entries, %d acknowledged", seen, a)
						return
					}
				}
				if a == n {
					return
				}
			}
		}(r)
	}
	for i, j := range perm {
		m.Put(key(j), val, kv.Timestamp(i+1))
		acked.Store(int64(i + 1))
	}
	wg.Wait()
	a := m.arena.Load()
	if len(a.blocks) < 4 || len(a.chunks) < 4 {
		t.Errorf("arena grew to %d node blocks and %d data chunks, want ≥ 4 each", len(a.blocks), len(a.chunks))
	}
}

// TestHotPathAllocations pins the arena's purpose: an insert allocates only
// when it opens a node block or data chunk, and a point read never does.
func TestHotPathAllocations(t *testing.T) {
	m := New()
	val := make([]byte, 100)
	keys := make([][]byte, 0, 5000)
	for i := 0; i < cap(keys); i++ {
		keys = append(keys, []byte(fmt.Sprintf("%016d", rand.Int63())))
	}
	i := 0
	for m.ApproximateBytes() < 256<<10 {
		m.Put(keys[i], val, 1)
		i++
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Add(kv.Cell{Key: keys[i], Value: val, Ts: 1, Kind: kv.KindPut})
		i++
	}); allocs >= 0.05 {
		t.Errorf("Add = %v allocs per cell, want < 0.05", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.Get(keys[i%len(keys)], 1); i++ }); allocs != 0 {
		t.Errorf("Get = %v allocs, want 0", allocs)
	}
}
