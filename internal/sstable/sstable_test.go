package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// buildTable writes cells (given in arbitrary order) into a new table.
func buildTable(t testing.TB, fs vfs.FS, name string, cells []kv.Cell) {
	t.Helper()
	type entry struct {
		ikey  []byte
		value []byte
	}
	entries := make([]entry, len(cells))
	for i, c := range cells {
		entries[i] = entry{kv.InternalKey(c.Key, c.Ts, c.Kind), c.Value}
	}
	sort.Slice(entries, func(i, j int) bool {
		return kv.CompareInternal(entries[i].ikey, entries[j].ikey) < 0
	})
	w, err := NewWriter(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Add(e.ikey, e.value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for i := 0; i < 1000; i++ {
		cells = append(cells, kv.Cell{
			Key:   []byte(fmt.Sprintf("user%06d", i)),
			Value: []byte(fmt.Sprintf("value-%d", i)),
			Ts:    kv.Timestamp(i%5 + 1),
			Kind:  kv.KindPut,
		})
	}
	buildTable(t, fs, "t1.sst", cells)

	r, err := Open(fs, "t1.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.EntryCount() != 1000 {
		t.Errorf("EntryCount = %d", r.EntryCount())
	}
	if string(r.LargestUserKey()) != "user000999" {
		t.Errorf("LargestUserKey = %q", r.LargestUserKey())
	}
	for _, i := range []int{0, 1, 499, 998, 999} {
		key := []byte(fmt.Sprintf("user%06d", i))
		c, ok, err := r.Get(key, kv.MaxTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(c.Value) != fmt.Sprintf("value-%d", i) {
			t.Errorf("Get(%s) = %+v, %v", key, c, ok)
		}
	}
	if _, ok, _ := r.Get([]byte("user9999999"), kv.MaxTimestamp); ok {
		t.Error("missing key found")
	}
	if _, ok, _ := r.Get([]byte("aaa"), kv.MaxTimestamp); ok {
		t.Error("key before table start found")
	}
}

// The footer's tombstone count lets the compaction picker reason about a
// table without reading it; it must survive the write→open round trip. So
// must the index block's max timestamp, which counts tombstones: here the
// newest entry is a delete marker, neither the table's first nor its last
// entry.
func TestTombstoneCountInFooter(t *testing.T) {
	fs := vfs.NewMemFS()
	cells := []kv.Cell{
		{Key: []byte("a"), Value: []byte("v"), Ts: 1, Kind: kv.KindPut},
		{Key: []byte("b"), Value: nil, Ts: 2, Kind: kv.KindDelete},
		{Key: []byte("c"), Value: []byte("v"), Ts: 3, Kind: kv.KindPut},
		{Key: []byte("c"), Value: nil, Ts: 4, Kind: kv.KindDelete},
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.TombstoneCount(); got != 2 {
		t.Errorf("TombstoneCount = %d, want 2", got)
	}
	if got, info := r.MaxTimestamp(), r.Info(); got != 4 || info.MaxTimestamp != 4 {
		t.Errorf("MaxTimestamp = %d, Info().MaxTimestamp = %d, want 4", got, info.MaxTimestamp)
	}

	buildTable(t, fs, "clean.sst", cells[:1])
	rc, err := Open(fs, "clean.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := rc.TombstoneCount(); got != 0 {
		t.Errorf("TombstoneCount = %d, want 0", got)
	}
	if got := rc.MaxTimestamp(); got != 1 {
		t.Errorf("MaxTimestamp = %d, want 1", got)
	}
}

// TestHorizonRoundTrip: the horizon a writer is given survives the
// write→open round trip, in a table with entries and in an empty one (a
// compaction round whose every cell was dropped still records it), and a
// table never given one reads 0.
func TestHorizonRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	for _, tc := range []struct {
		name    string
		cells   int
		horizon kv.Timestamp
	}{{"full.sst", 3, 42}, {"empty.sst", 0, 17}, {"none.sst", 1, 0}} {
		w, err := NewWriter(fs, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		w.SetHorizon(tc.horizon)
		for i := 0; i < tc.cells; i++ {
			if err := w.Add(kv.InternalKey([]byte{byte('a' + i)}, 9, kv.KindPut), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(fs, tc.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Horizon() != tc.horizon {
			t.Errorf("%s: Horizon = %d, want %d", tc.name, r.Horizon(), tc.horizon)
		}
		r.Close()
	}
}

func TestGetVersionVisibility(t *testing.T) {
	fs := vfs.NewMemFS()
	key := []byte("k")
	cells := []kv.Cell{
		{Key: key, Value: []byte("v1"), Ts: 10, Kind: kv.KindPut},
		{Key: key, Value: nil, Ts: 20, Kind: kv.KindDelete},
		{Key: key, Value: []byte("v3"), Ts: 30, Kind: kv.KindPut},
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if c, ok, _ := r.Get(key, 5); ok {
		t.Errorf("ts=5: %+v", c)
	}
	if c, ok, _ := r.Get(key, 15); !ok || string(c.Value) != "v1" {
		t.Errorf("ts=15: %+v ok=%v", c, ok)
	}
	if c, ok, _ := r.Get(key, 25); !ok || !c.Tombstone() {
		t.Errorf("ts=25 must see tombstone: %+v ok=%v", c, ok)
	}
	if c, ok, _ := r.Get(key, 100); !ok || string(c.Value) != "v3" {
		t.Errorf("ts=100: %+v ok=%v", c, ok)
	}
}

func TestIteratorFullScan(t *testing.T) {
	fs := vfs.NewMemFS()
	const n = 2500 // several blocks
	var cells []kv.Cell
	for i := 0; i < n; i++ {
		cells = append(cells, kv.Cell{
			Key:   []byte(fmt.Sprintf("row%08d", i)),
			Value: bytes.Repeat([]byte("x"), 50),
			Ts:    1,
			Kind:  kv.KindPut,
		})
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.index) < 2 {
		t.Fatalf("test requires multiple blocks, got %d", len(r.index))
	}

	it := r.Iterator()
	count := 0
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.InternalKey()
		if prev != nil && kv.CompareInternal(prev, k) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], k...)
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scanned %d entries, want %d", count, n)
	}
}

func TestIteratorSeek(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for i := 0; i < 1000; i += 2 { // even keys only
		cells = append(cells, kv.Cell{
			Key:   []byte(fmt.Sprintf("row%08d", i)),
			Value: []byte("v"),
			Ts:    1,
			Kind:  kv.KindPut,
		})
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	it := r.Iterator()
	// Seek to an absent odd key: must land on the next even key.
	it.Seek(kv.SeekKey([]byte("row00000101"), kv.MaxTimestamp))
	if !it.Valid() {
		t.Fatal("Seek found nothing")
	}
	if c := it.Cell(); string(c.Key) != "row00000102" {
		t.Errorf("Seek landed on %q, want row00000102", c.Key)
	}
	// Seek past the end.
	it.Seek(kv.SeekKey([]byte("zzz"), kv.MaxTimestamp))
	if it.Valid() {
		t.Error("Seek past end must be invalid")
	}
	// Seek before the beginning.
	it.Seek(kv.SeekKey([]byte("aaa"), kv.MaxTimestamp))
	if !it.Valid() || string(it.Cell().Key) != "row00000000" {
		t.Error("Seek before start must land on first key")
	}
	// Continue with Next after a Seek.
	it.Seek(kv.SeekKey([]byte("row00000004"), kv.MaxTimestamp))
	it.Next()
	if !it.Valid() || string(it.Cell().Key) != "row00000006" {
		t.Errorf("Next after Seek: %q", it.Cell().Key)
	}
}

func TestBlockCacheHitAvoidsIO(t *testing.T) {
	mem := vfs.NewMemFS()
	lfs := vfs.NewLatencyFS(mem, vfs.LatencyProfile{})
	var cells []kv.Cell
	for i := 0; i < 100; i++ {
		cells = append(cells, kv.Cell{Key: []byte(fmt.Sprintf("k%04d", i)), Value: []byte("v"), Ts: 1})
	}
	buildTable(t, lfs, "t.sst", cells)

	cache := NewBlockCache(1 << 20)
	r, err := Open(lfs, "t.sst", cache)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before, _, _, _, _ := lfs.Stats.Snapshot()
	if _, ok, _ := r.Get([]byte("k0042"), kv.MaxTimestamp); !ok {
		t.Fatal("key missing")
	}
	afterFirst, _, _, _, _ := lfs.Stats.Snapshot()
	if afterFirst == before {
		t.Error("first read should hit the VFS")
	}
	if _, ok, _ := r.Get([]byte("k0042"), kv.MaxTimestamp); !ok {
		t.Fatal("key missing")
	}
	afterSecond, _, _, _, _ := lfs.Stats.Snapshot()
	if afterSecond != afterFirst {
		t.Error("second read must be served from cache")
	}
	hits, misses := cache.Stats()
	if hits < 1 || misses < 1 {
		t.Errorf("cache stats hits=%d misses=%d", hits, misses)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := NewBlockCache(100)
	c.Put("t", 0, make([]byte, 60))
	c.Put("t", 1, make([]byte, 60)) // must evict offset 0
	if c.Get("t", 0) != nil {
		t.Error("LRU victim not evicted")
	}
	if c.Get("t", 1) == nil {
		t.Error("resident block evicted")
	}
	if c.Used() != 60 {
		t.Errorf("Used = %d", c.Used())
	}
	c.Put("t", 2, make([]byte, 200)) // larger than capacity: not inserted
	if c.Get("t", 2) != nil {
		t.Error("oversized block must not be cached")
	}
	c.DropTable("t")
	if c.Used() != 0 {
		t.Errorf("Used after DropTable = %d", c.Used())
	}
	var nilCache *BlockCache
	if nilCache.Get("t", 0) != nil {
		t.Error("nil cache Get must return nil")
	}
	nilCache.Put("t", 0, []byte("x")) // must not panic
	nilCache.DropTable("t")
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache stats must be zero")
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	fs := vfs.NewMemFS()
	w, err := NewWriter(fs, "t.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abandon()
	// A key too short to carry a timestamp would escape the table's max
	// timestamp.
	if err := w.Add([]byte("short"), nil); err == nil {
		t.Error("Add of a key without a timestamp suffix must fail")
	}
	if err := w.Add(kv.InternalKey([]byte("b"), 1, kv.KindPut), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(kv.InternalKey([]byte("a"), 1, kv.KindPut), nil); err == nil {
		t.Error("out-of-order Add must fail")
	}
	// Same key, older ts is in order (descending ts sorts later).
	if err := w.Add(kv.InternalKey([]byte("b"), 0, kv.KindPut), nil); err != nil {
		t.Errorf("older version of same key must be accepted: %v", err)
	}
	// Exact duplicate must fail.
	if err := w.Add(kv.InternalKey([]byte("b"), 0, kv.KindPut), nil); err == nil {
		t.Error("duplicate internal key must fail")
	}
}

func TestWriterDoubleFinish(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, "t.sst")
	w.Add(kv.InternalKey([]byte("a"), 1, kv.KindPut), []byte("v"))
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Error("double Finish must fail")
	}
	if err := w.Add(kv.InternalKey([]byte("b"), 1, kv.KindPut), nil); err == nil {
		t.Error("Add after Finish must fail")
	}
}

func TestEmptyTable(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(fs, "empty.sst")
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, "empty.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.EntryCount() != 0 || r.LargestUserKey() != nil {
		t.Error("empty table must report zero entries, nil bounds")
	}
	if _, ok, _ := r.Get([]byte("k"), kv.MaxTimestamp); ok {
		t.Error("Get on empty table found something")
	}
	it := r.Iterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("iterator on empty table is valid")
	}
}

func TestOpenErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := Open(fs, "missing.sst", nil); err == nil {
		t.Error("open missing file: want error")
	}
	f, _ := fs.Create("short.sst")
	f.Write([]byte("tiny"))
	f.Close()
	if _, err := Open(fs, "short.sst", nil); err == nil {
		t.Error("open short file: want error")
	}
	g, _ := fs.Create("badmagic.sst")
	g.Write(make([]byte, footerLen+10))
	g.Close()
	if _, err := Open(fs, "badmagic.sst", nil); !errors.Is(err, ErrBadTable) {
		t.Errorf("open bad-magic file: err=%v, want ErrBadTable", err)
	}
}

func TestMultiVersionAcrossBlocks(t *testing.T) {
	// Many versions of few keys spanning block boundaries: Get must still
	// find the newest visible version.
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for _, key := range []string{"a", "b", "c"} {
		for ts := 1; ts <= 300; ts++ {
			cells = append(cells, kv.Cell{
				Key:   []byte(key),
				Value: bytes.Repeat([]byte(fmt.Sprintf("%s%03d", key, ts)), 10),
				Ts:    kv.Timestamp(ts),
				Kind:  kv.KindPut,
			})
		}
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, key := range []string{"a", "b", "c"} {
		for _, ts := range []kv.Timestamp{1, 150, 300, 1000} {
			want := ts
			if want > 300 {
				want = 300
			}
			c, ok, err := r.Get([]byte(key), ts)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || c.Ts != want {
				t.Errorf("Get(%s, %d) = ts %d ok=%v, want ts %d", key, ts, c.Ts, ok, want)
			}
		}
	}
}

func TestRandomizedAgainstSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := vfs.NewMemFS()
	model := map[string]string{}
	var cells []kv.Cell
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(2000))
		if _, dup := model[k]; dup {
			continue
		}
		v := fmt.Sprintf("val%d", i)
		model[k] = v
		cells = append(cells, kv.Cell{Key: []byte(k), Value: []byte(v), Ts: 1, Kind: kv.KindPut})
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", NewBlockCache(1<<16)) // small cache: exercise eviction
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k, v := range model {
		c, ok, err := r.Get([]byte(k), kv.MaxTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(c.Value) != v {
			t.Errorf("Get(%s) = %q ok=%v, want %q", k, c.Value, ok, v)
		}
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("absent%05d", i)
		if _, ok, _ := r.Get([]byte(k), kv.MaxTimestamp); ok {
			t.Errorf("absent key %s found", k)
		}
	}
}

func BenchmarkSSTableGet(b *testing.B) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	const n = 100000
	for i := 0; i < n; i++ {
		cells = append(cells, kv.Cell{Key: []byte(fmt.Sprintf("k%08d", i)), Value: make([]byte, 100), Ts: 1})
	}
	buildTable(b, fs, "bench.sst", cells)
	r, err := Open(fs, "bench.sst", NewBlockCache(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get([]byte(fmt.Sprintf("k%08d", i%n)), kv.MaxTimestamp)
	}
}

func TestReaderAccessorsAndIteratorValue(t *testing.T) {
	fs := vfs.NewMemFS()
	cells := []kv.Cell{{Key: []byte("k1"), Value: []byte("v1"), Ts: 1, Kind: kv.KindPut}}
	w, err := NewWriter(fs, "acc.sst")
	if err != nil {
		t.Fatal(err)
	}
	if w.Count() != 0 {
		t.Error("fresh writer Count != 0")
	}
	for _, c := range cells {
		w.Add(kv.InternalKey(c.Key, c.Ts, c.Kind), c.Value)
	}
	if w.Count() != 1 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(fs, "acc.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "acc.sst" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Size() <= 0 {
		t.Errorf("Size = %d", r.Size())
	}
	it := r.Iterator()
	it.SeekToFirst()
	if !it.Valid() || string(it.Value()) != "v1" {
		t.Errorf("iterator Value = %q", it.Value())
	}
	it.Next()
	if it.Valid() {
		t.Error("iterator valid past end")
	}
	it.Next() // Next on invalid iterator must be a no-op
	if it.Err() != nil {
		t.Errorf("Err = %v", it.Err())
	}
}
