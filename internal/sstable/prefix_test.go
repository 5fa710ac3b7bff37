package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// prefixCells covers the entry shapes prefix sharing must round-trip: user
// keys that are byte prefixes of each other, a put and a tombstone of one key
// at the same and at different timestamps, keys longer than the iterator's
// inline key buffer, suffixes and values of ≥ 128 bytes (multi-byte
// varints), and empty values. Enough of them to fill several blocks.
func prefixCells() []kv.Cell {
	long := string(bytes.Repeat([]byte("L"), 100))
	big := bytes.Repeat([]byte("v"), 300)
	var cells []kv.Cell
	for i := 0; i < 300; i++ {
		base := fmt.Sprintf("k%04d", i)
		var value []byte
		switch i % 3 {
		case 1:
			value = big
		case 2:
			value = []byte(base)
		}
		cells = append(cells,
			kv.Cell{Key: []byte(base), Value: value, Ts: 5, Kind: kv.KindPut},
			kv.Cell{Key: []byte(base), Ts: 5, Kind: kv.KindDelete}, // same ts as the put
			kv.Cell{Key: []byte(base), Value: []byte("old"), Ts: 2, Kind: kv.KindPut},
			kv.Cell{Key: []byte(base + "x"), Value: []byte("ext"), Ts: 3}, // base is its prefix
			kv.Cell{Key: []byte(base + "x" + long), Value: big, Ts: 4},    // 107-byte user key
			kv.Cell{Key: []byte(base + "x" + long + long + "!"), Ts: 1, Kind: kv.KindDelete},
		)
		if i%10 == 0 {
			// A user key sharing nothing with the previous one, with a
			// suffix longer than 127 bytes.
			cells = append(cells, kv.Cell{Key: []byte(base + "y" + long + long), Value: []byte{}, Ts: 9})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		return kv.CompareInternal(kv.InternalKey(cells[i].Key, cells[i].Ts, cells[i].Kind),
			kv.InternalKey(cells[j].Key, cells[j].Ts, cells[j].Kind)) < 0
	})
	return cells
}

// TestPrefixSharedRoundTrip checks Get, a full iteration and Seek on every
// entry shape of prefixCells against the sorted input.
func TestPrefixSharedRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	cells := prefixCells()
	buildTable(t, fs, "p.sst", cells)
	r, err := Open(fs, "p.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() < 3 {
		t.Fatalf("want a multi-block table, got %d blocks", r.NumBlocks())
	}

	same := func(got kv.Cell, want kv.Cell) bool {
		return bytes.Equal(got.Key, want.Key) && bytes.Equal(got.Value, want.Value) &&
			got.Ts == want.Ts && got.Kind == want.Kind
	}
	it := r.Iterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(cells) || !same(it.Cell(), cells[i]) {
			t.Fatalf("entry %d = %+v, want %+v", i, it.Cell(), cells[i])
		}
		i++
	}
	if err := it.Err(); err != nil || i != len(cells) {
		t.Fatalf("iterated %d of %d entries, err %v", i, len(cells), err)
	}

	for i, want := range cells {
		// The first entry of each user key is what Get at its timestamp
		// returns (a tombstone beats a put at the same timestamp).
		if i > 0 && bytes.Equal(cells[i-1].Key, want.Key) {
			continue
		}
		got, ok, err := r.Get(want.Key, want.Ts)
		if err != nil || !ok || !same(got, want) {
			t.Fatalf("Get(%q, %d) = %+v ok=%v err=%v, want %+v", want.Key, want.Ts, got, ok, err, want)
		}
		// No version at ts 0: the seek lands on the next user key, which
		// often has this one as a prefix.
		if _, ok, err := r.Get(want.Key, 0); ok || err != nil {
			t.Fatalf("Get(%q, 0): ok=%v err=%v", want.Key, ok, err)
		}
		it.Seek(kv.SeekKey(want.Key, kv.MaxTimestamp))
		if !it.Valid() || !same(it.Cell(), want) {
			t.Fatalf("Seek(%q) landed on %+v, want %+v", want.Key, it.Cell(), want)
		}
	}
}

// TestOvershootingSharedPrefixIsBadTable: an entry claiming to share more
// bytes than the previous key has is a malformed table for Get and the
// iterator alike, not a panic. The entry is corrupted before the writer
// checksums the block, so Open accepts the table.
func TestOvershootingSharedPrefixIsBadTable(t *testing.T) {
	fs := vfs.NewMemFS()
	buildMalformedShared(t, fs, "bad.sst")
	r, err := Open(fs, "bad.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, _, err := r.Get([]byte("key1"), kv.MaxTimestamp); !errors.Is(err, ErrBadTable) {
		t.Errorf("Get over the bad entry: err = %v, want ErrBadTable", err)
	}
	it := r.Iterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n != 1 || !errors.Is(it.Err(), ErrBadTable) {
		t.Errorf("iteration: %d entries, err = %v; want 1 entry then ErrBadTable", n, it.Err())
	}
	it.Seek(kv.SeekKey([]byte("key1"), kv.MaxTimestamp))
	if it.Valid() || !errors.Is(it.Err(), ErrBadTable) {
		t.Errorf("Seek onto the bad entry: valid=%v err=%v", it.Valid(), it.Err())
	}
}

// buildMalformedShared writes a well-checksummed two-entry table whose second
// entry claims a shared prefix longer than the first entry's key.
func buildMalformedShared(t testing.TB, fs vfs.FS, name string) {
	t.Helper()
	w, err := NewWriter(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	first := kv.InternalKey([]byte("key0"), 1, kv.KindPut)
	for _, k := range []string{"key0", "key1"} {
		if err := w.Add(kv.InternalKey([]byte(k), 1, kv.KindPut), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	second := 3 + len(first) + 1 // header, key and value of the first entry
	if w.block[second] == 0 || w.block[second] >= 0x80 {
		t.Fatalf("second entry's shared length is %d, want a one-byte prefix", w.block[second])
	}
	w.block[second] = byte(len(first) + 1)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}
