package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// flipByte XORs one byte of the named file in place (read-modify-rewrite,
// since the VFS has no WriteAt) — the test's stand-in for at-rest bit rot.
func flipByte(t *testing.T, fs vfs.FS, name string, off int64) {
	t.Helper()
	buf := readAll(t, fs, name)
	buf[off] ^= 0xff
	writeAll(t, fs, name, buf)
}

func checksumCells(n int) []kv.Cell {
	cells := make([]kv.Cell, n)
	for i := range cells {
		cells[i] = kv.Cell{
			Key:   []byte(fmt.Sprintf("user%06d", i)),
			Value: []byte(fmt.Sprintf("value-%d-padpadpadpadpadpad", i)),
			Ts:    1,
			Kind:  kv.KindPut,
		}
	}
	return cells
}

func TestChecksumRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", checksumCells(1000))
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() < 2 {
		t.Fatalf("want multi-block table, got %d blocks", r.NumBlocks())
	}
	var bytesRead int
	for i := 0; i < r.NumBlocks(); i++ {
		n, err := r.VerifyBlock(i)
		if err != nil {
			t.Fatalf("VerifyBlock(%d): %v", i, err)
		}
		bytesRead += n
	}
	if bytesRead == 0 {
		t.Fatal("VerifyBlock read no bytes")
	}
	if _, ok, err := r.Get([]byte("user000500"), kv.MaxTimestamp); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
}

func TestChecksumDetectsDataCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", checksumCells(1000))
	// Flip a byte inside the first data block (data blocks start at offset 0).
	flipByte(t, fs, "t.sst", 100)

	// Open succeeds — metadata is intact — but the scrub sweep finds it.
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.VerifyBlock(0); !errors.Is(err, ErrCorruption) {
		t.Fatalf("VerifyBlock(0) = %v, want ErrCorruption", err)
	}
	if _, err := r.VerifyBlock(1); err != nil {
		t.Fatalf("VerifyBlock(1) on clean block: %v", err)
	}
}

// readAll returns the named file's bytes.
func readAll(t testing.TB, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// writeAll replaces the named file with data.
func writeAll(t testing.TB, fs vfs.FS, name string, data []byte) {
	t.Helper()
	if err := fs.Remove(name); err != nil && !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal(err)
	}
	g, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumMetadataCorruptionRejectedAtOpen(t *testing.T) {
	// Corrupting the filter block, the index block, the checksum section or
	// the footer must fail at Open with the matching sentinel — a reader
	// never decodes, let alone serves from, unverifiable metadata.
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", checksumCells(200))
	clean := readAll(t, fs, "t.sst")
	ftr, err := unmarshalFooter(clean[len(clean)-footerLen:])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		off  uint64
		want error
	}{
		{"filter-block", ftr.filterOff + 5, ErrCorruption},
		{"index-block", ftr.indexOff + 64, ErrCorruption},
		// The max timestamp follows the length-prefixed smallest user key.
		{"index-max-timestamp", ftr.indexOff + 1 + uint64(len("user000000")), ErrCorruption},
		{"checksum-section", ftr.checksumOff + 2, ErrCorruption},
		{"footer-index-offset", uint64(len(clean)) - footerLen + 16 + 7, ErrBadTable},
		{"footer-magic", uint64(len(clean)) - 4, ErrBadTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), clean...)
			bad[tc.off] ^= 0xff
			writeAll(t, fs, "bad.sst", bad)
			if _, err := Open(fs, "bad.sst", nil); !errors.Is(err, tc.want) {
				t.Fatalf("Open on corrupted %s = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// TestCorruptIndexCountRejectedAtOpen is the regression test for a panic:
// Open used to decode the index block before checking its CRC, and the
// decoder sized make([]indexEntry, 0, n) from the on-disk entry count, so a
// corrupted count died with "makeslice: cap out of range" instead of
// returning an error.
func TestCorruptIndexCountRejectedAtOpen(t *testing.T) {
	fs := vfs.NewMemFS()
	buildTable(t, fs, "t.sst", checksumCells(200))
	buf := readAll(t, fs, "t.sst")
	ftr, err := unmarshalFooter(buf[len(buf)-footerLen:])
	if err != nil {
		t.Fatal(err)
	}
	// The index block opens with the length-prefixed smallest user key and
	// the one-byte max timestamp (1); the entry count follows. Overwrite it
	// with the uvarint of 1<<64 - 1.
	count := ftr.indexOff + 1 + uint64(len("user000000")) + 1
	copy(buf[count:], "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")
	writeAll(t, fs, "t.sst", buf)
	if _, err := Open(fs, "t.sst", nil); !errors.Is(err, ErrCorruption) {
		t.Fatalf("Open with a corrupted index entry count = %v, want ErrCorruption", err)
	}
}

// TestDecodersBoundCounts feeds the section decoders counts that the bytes
// that follow cannot back — what a corruption that also fixes up the CRC, or
// a hostile file, looks like. Each must be a decode error, not an allocation
// sized by the count.
func TestDecodersBoundCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)

	// 1<<62 block CRCs: 4*(n+2) wraps to 8, the length of the two trailing
	// CRCs alone.
	sums := append(append([]byte(nil), huge...), make([]byte, 8)...)
	sums = binary.LittleEndian.AppendUint32(sums, blockCRC(sums))
	if _, err := unmarshalChecksums(sums); !errors.Is(err, ErrBadTable) {
		t.Fatalf("unmarshalChecksums(wrapping count) = %v, want ErrBadTable", err)
	}

	entry := marshalIndex(nil, stamps{maxTs: 7, horizon: 5}, []indexEntry{{lastKey: []byte("k"), firstKey: []byte("k"), handle: blockHandle{0, 10}}})
	// Every index block opens with the smallest key's length (0 here), the
	// max timestamp (7) and the horizon (5).
	for name, idx := range map[string][]byte{
		"entry count":   append([]byte{0, 7, 5}, huge...),
		"restart count": append(entry[:len(entry)-1:len(entry)-1], huge...),
		"key length":    append([]byte{0, 7, 5, 1}, huge...),
		"handle":        marshalIndex(nil, stamps{maxTs: 7, horizon: 5}, []indexEntry{{handle: blockHandle{8, 10}}}),
		"restart":       marshalIndex(nil, stamps{maxTs: 7, horizon: 5}, []indexEntry{{handle: blockHandle{0, 10}, restarts: []uint32{11}}}),
		"trailing":      append(append([]byte(nil), entry...), 0),
		"max timestamp": {0, 0x80},
		"horizon":       {0, 7, 0x80},
	} {
		if _, _, _, err := unmarshalIndex(idx, 10); !errors.Is(err, ErrBadTable) {
			t.Errorf("unmarshalIndex(bad %s) = %v, want ErrBadTable", name, err)
		}
	}
	if _, st, got, err := unmarshalIndex(entry, 10); err != nil || len(got) != 1 || st != (stamps{7, 5}) {
		t.Fatalf("unmarshalIndex(valid) = %d entries, stamps %+v, %v", len(got), st, err)
	}
}
