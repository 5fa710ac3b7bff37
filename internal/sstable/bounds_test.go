package sstable

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"diffindex/internal/bloom"
	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// seqCells returns n sequential single-version cells keyed key%08d.
func seqCells(n int) []kv.Cell {
	cells := make([]kv.Cell, n)
	for i := range cells {
		cells[i] = kv.Cell{
			Key:   []byte(fmt.Sprintf("key%08d", i)),
			Value: []byte(fmt.Sprintf("val-%d", i)),
			Ts:    1,
			Kind:  kv.KindPut,
		}
	}
	return cells
}

// TestUserKeyBoundsPersisted checks both user-key bounds survive a
// write/open round trip — the smallest comes from the index-block prefix,
// not a data-block read.
func TestUserKeyBoundsPersisted(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for i := 100; i < 200; i++ {
		cells = append(cells, kv.Cell{
			Key:   []byte(fmt.Sprintf("user%04d", i)),
			Value: []byte("v"),
			Ts:    1,
			Kind:  kv.KindPut,
		})
	}
	buildTable(t, fs, "b.sst", cells)
	r, err := Open(fs, "b.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := string(r.SmallestUserKey()); got != "user0100" {
		t.Errorf("SmallestUserKey = %q, want %q", got, "user0100")
	}
	if got := string(r.LargestUserKey()); got != "user0199" {
		t.Errorf("LargestUserKey = %q, want %q", got, "user0199")
	}
}

func TestMayContainKey(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for i := 100; i < 200; i += 10 {
		cells = append(cells, kv.Cell{
			Key:   []byte(fmt.Sprintf("user%04d", i)),
			Value: []byte("v"),
			Ts:    1,
			Kind:  kv.KindPut,
		})
	}
	buildTable(t, fs, "m.sst", cells)
	r, err := Open(fs, "m.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, tc := range []struct {
		key  string
		want bool
	}{
		{"user0099", false}, // below smallest
		{"user0100", true},  // exactly smallest
		{"user0105", true},  // inside (even though absent — range check only)
		{"user0190", true},  // exactly largest
		{"user0191", false}, // above largest
		{"zzz", false},
		{"", false},
	} {
		if got := r.MayContainKey([]byte(tc.key)); got != tc.want {
			t.Errorf("MayContainKey(%q) = %v, want %v", tc.key, got, tc.want)
		}
	}
}

// TestSearchBlockRestarts checks the restart-point binary search against the
// ground-truth linear scan (restarts=nil) for every entry boundary and for
// keys that fall between entries, comparing the reconstructed keys the two
// land on. Every restart entry must decode on its own: it shares nothing
// with the entry before it. prefixCells puts entries with multi-byte
// lengths on restart points.
func TestSearchBlockRestarts(t *testing.T) {
	for _, cells := range [][]kv.Cell{seqCells(3000), prefixCells()} {
		fs := vfs.NewMemFS()
		buildTable(t, fs, "t.sst", cells)
		r, err := Open(fs, "t.sst", nil)
		if err != nil {
			t.Fatal(err)
		}
		searchRestarts(t, r)
		r.Close()
	}
}

func searchRestarts(t *testing.T, r *Reader) {
	for bi := 0; bi < r.NumBlocks(); bi++ {
		blk, err := r.block(bi)
		if err != nil {
			t.Fatal(err)
		}
		restarts := r.index[bi].restarts
		if bi == 0 && len(restarts) == 0 {
			t.Fatal("no restart points recorded")
		}
		probe := func(seek []byte) {
			gotKey, _, gotNext, gotOK := seekEntry(blk, restarts, seek, nil)
			wantKey, _, wantNext, wantOK := seekEntry(blk, nil, seek, nil)
			if gotOK != wantOK || gotNext != wantNext || gotNext < 0 || (gotOK && !bytes.Equal(gotKey, wantKey)) {
				t.Fatalf("block %d seekEntry(%q): restarts=(%v %d %q) linear=(%v %d %q)",
					bi, seek, gotOK, gotNext, gotKey, wantOK, wantNext, wantKey)
			}
		}
		var keys [][]byte
		var key []byte
		for off := 0; off < len(blk); {
			start := off
			if key, _, off = nextEntry(blk, off, key); off < 0 {
				t.Fatalf("block %d: malformed entry at %d", bi, start)
			}
			keys = append(keys, append([]byte(nil), key...))
			if start == 0 || slices.Contains(restarts, uint32(start)) {
				shared, suffix, _, _ := blockEntry(blk[start:])
				if shared != 0 || !bytes.Equal(suffix, key) {
					t.Fatalf("block %d restart at %d shares %d bytes", bi, start, shared)
				}
			}
		}
		for _, ikey := range keys {
			probe(ikey)                                       // exact hit
			probe(append([]byte(nil), ikey[:len(ikey)-1]...)) // prefix: sorts below
			probe(append(append([]byte(nil), ikey...), 0))    // just above
		}
		probe([]byte{})                       // below everything
		probe(bytes.Repeat([]byte{0xff}, 24)) // above everything
	}
}

// countingFS wraps a vfs.FS and counts ReadAt calls on every file opened
// through it, so tests can assert "zero block I/O".
type countingFS struct {
	vfs.FS
	reads atomic.Int64
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &c.reads}, nil
}

type countingFile struct {
	vfs.File
	n *atomic.Int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.n.Add(1)
	return f.File.ReadAt(p, off)
}

// TestGetGapRejectionZeroIO: a point get for a key that falls in the gap
// between two blocks' key ranges must be rejected from the index alone —
// zero data-block reads — using the per-block first-key bound. The bloom
// filter is replaced so the probe key passes it (simulating a false
// positive, the only case where the gap bound matters).
func TestGetGapRejectionZeroIO(t *testing.T) {
	cfs := &countingFS{FS: vfs.NewMemFS()}
	// Build by hand with an explicit block cut between the "a" and "c" key
	// ranges so the gap lands exactly on a block boundary (a size-based cut
	// would let one block straddle it, and a straddling block legitimately
	// needs a read to disprove the key).
	w, err := NewWriter(cfs, "t.sst")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := kv.InternalKey([]byte(fmt.Sprintf("a%07d", i)), 1, kv.KindPut)
		if err := w.Add(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.cutBlock(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := kv.InternalKey([]byte(fmt.Sprintf("c%07d", i)), 1, kv.KindPut)
		if err := w.Add(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Force the bloom to pass for the gap key: the filter is rebuilt over
	// exactly the probe, so MayContain is true yet the key is absent.
	gap := []byte("b5000000")
	r.filter = bloom.New([][]byte{gap}, 10)

	before := cfs.reads.Load()
	if _, ok, err := r.Get(gap, kv.MaxTimestamp); ok || err != nil {
		t.Fatalf("Get(gap) = ok=%v err=%v", ok, err)
	}
	if got := cfs.reads.Load() - before; got != 0 {
		t.Fatalf("gap-key Get performed %d reads, want 0", got)
	}

	// Sanity: the same reader still does real I/O for a key it must fetch.
	r.filter = bloom.New([][]byte{[]byte("c0001000")}, 10)
	before = cfs.reads.Load()
	if _, ok, _ := r.Get([]byte("c0001000"), kv.MaxTimestamp); !ok {
		t.Fatal("real key not found")
	}
	if got := cfs.reads.Load() - before; got == 0 {
		t.Fatal("expected at least one block read for a present key")
	}
}

// TestInfoSurface spot-checks the Info() summary lsmtool stats prints.
func TestInfoSurface(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", seqCells(5000))
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Info()
	if info.Blocks != r.NumBlocks() || info.Entries != 5000 {
		t.Fatalf("Info = %+v", info)
	}
	if info.Restarts == 0 {
		t.Fatalf("restart count missing: %+v", info)
	}
}
