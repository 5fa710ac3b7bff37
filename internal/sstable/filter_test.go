package sstable

import (
	"fmt"
	"hash/crc32"
	"testing"

	"diffindex/internal/bloom"
	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// filterOf builds a default-sized filter over keys.
func filterOf(keys ...[]byte) *bloom.Filter {
	sums := make([]uint64, len(keys))
	for i, k := range keys {
		sums[i] = bloom.Hash(k)
	}
	return bloom.New(sums, bloom.BitsPerKey)
}

// TestWriterFilterBytesUnchanged pins the filter the writer builds for a
// fixed table — composite keys (each user key and its row's first part),
// tombstones and plain keys — to its serialized bytes, so tables written
// before and after a change to the writer's filter path agree bit for bit.
func TestWriterFilterBytesUnchanged(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for row := 0; row < 300; row++ {
		rowKey := []byte(fmt.Sprintf("row%05d", row))
		for _, col := range []string{"a", "title"} {
			key := kv.BaseKey(rowKey, []byte(col))
			cells = append(cells,
				kv.Cell{Key: key, Value: []byte("v"), Ts: kv.Timestamp(row + 1), Kind: kv.KindPut},
				kv.Cell{Key: key, Ts: kv.Timestamp(row + 2), Kind: kv.KindDelete})
		}
		cells = append(cells, kv.Cell{Key: []byte(fmt.Sprintf("plain%05d", row)), Value: []byte("p"), Ts: 7, Kind: kv.KindPut})
	}
	buildTable(t, fs, "g.sst", cells)
	r, err := Open(fs, "g.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b := r.filter.Marshal()
	if len(b) != 1504 || crc32.ChecksumIEEE(b) != 0x0b17f30b {
		t.Errorf("filter: %d bytes, CRC %#08x; want 1504 bytes, CRC 0x0b17f30b", len(b), crc32.ChecksumIEEE(b))
	}
}

// TestWriterAddAllocs: adding an entry with a new user key (and a new
// first part) allocates nothing once the writer's buffers have grown; only
// the occasional block cut and slice growth do, which average out to zero.
func TestWriterAddAllocs(t *testing.T) {
	w, err := NewWriter(vfs.NewMemFS(), "a.sst")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abandon()
	const warm, runs = 2000, 2000
	ikeys := make([][]byte, warm+runs+1)
	for i := range ikeys {
		key := kv.BaseKey([]byte(fmt.Sprintf("row%07d", i)), []byte("title"))
		ikeys[i] = kv.InternalKey(key, 1, kv.KindPut)
	}
	value := []byte("value")
	next := 0
	add := func() {
		if err := w.Add(ikeys[next], value); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range warm {
		add()
	}
	if n := testing.AllocsPerRun(runs, add); n != 0 {
		t.Errorf("Writer.Add of a new key: %v allocations per entry, want 0", n)
	}
}
