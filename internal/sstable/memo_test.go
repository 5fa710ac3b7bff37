package sstable

import (
	"fmt"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// TestGetMemoAtBlockEdges walks keys in order across the edge between two
// data blocks through one memo and checks each answer against Get. The
// block's last key and a key in the gap after it are served from the memo
// without a read; only entering a block reads it.
func TestGetMemoAtBlockEdges(t *testing.T) {
	cfs := &countingFS{FS: vfs.NewMemFS()}
	cells := seqCells(2000)
	buildTable(t, cfs, "t.sst", cells)
	r, err := Open(cfs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() < 3 {
		t.Fatalf("%d blocks, want at least 3", r.NumBlocks())
	}
	first := kv.InternalUserKey(r.index[1].firstKey)
	last := kv.InternalUserKey(r.index[1].lastKey)
	next := kv.InternalUserKey(r.index[2].firstKey)
	gap := append(append([]byte(nil), last...), 'x') // after last, before next
	// Let the gap key past the filter, as a false positive would.
	keys := [][]byte{gap}
	for _, c := range cells {
		keys = append(keys, c.Key)
	}
	r.filter = filterOf(keys...)

	var memo BlockMemo
	for _, step := range []struct {
		key   []byte
		reads int64
	}{
		{first, 1}, // enters block 1
		{last, 0},  // the block's last key
		{gap, 0},   // between blocks: rejected by block 2's first key
		{next, 1},  // enters block 2
		{next, 0},  // a duplicate
	} {
		want, wantOK, err := r.Get(step.key, kv.MaxTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		before := cfs.reads.Load()
		got, ok, err := r.GetMemo(step.key, kv.MaxTimestamp, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if reads := cfs.reads.Load() - before; reads != step.reads {
			t.Errorf("GetMemo(%q): %d reads, want %d", step.key, reads, step.reads)
		}
		if ok != wantOK || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("GetMemo(%q) = %v %v, Get = %v %v", step.key, got, ok, want, wantOK)
		}
	}
	if _, ok, _ := r.Get(gap, kv.MaxTimestamp); ok {
		t.Errorf("gap key %q found", gap)
	}
}
