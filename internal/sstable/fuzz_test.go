package sstable

import (
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// FuzzOpen feeds arbitrary bytes as a table file. Open must return an error
// or a reader on which point gets, a full iterator walk, seeks and
// VerifyBlock of every block never panic — whatever they return. The index
// decoder sits behind the index CRC at Open, where mutations rarely reach
// it, so the same bytes are also handed to it directly.
func FuzzOpen(f *testing.F) {
	fs := vfs.NewMemFS()
	cells := checksumCells(300) // three data blocks
	buildTable(f, fs, "seed.sst", cells)
	good := readAll(f, fs, "seed.sst")
	ftr, err := unmarshalFooter(good[len(good)-footerLen:])
	if err != nil {
		f.Fatal(err)
	}

	// Long shared prefixes, multi-byte varints (two blocks' worth), and an
	// entry whose shared length overshoots the previous key.
	buildTable(f, fs, "prefix.sst", prefixCells()[:40])
	buildMalformedShared(f, fs, "bad.sst")

	f.Add([]byte{})
	f.Add(good)
	f.Add(readAll(f, fs, "prefix.sst"))
	f.Add(readAll(f, fs, "bad.sst"))
	f.Add(good[ftr.indexOff : ftr.indexOff+ftr.indexLen])
	for _, cut := range []uint64{1, 8, footerLen - 1, footerLen, footerLen + ftr.checksumLen, uint64(len(good)) - ftr.indexOff} {
		f.Add(good[:uint64(len(good))-cut])
	}
	flip := func(off uint64) {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	flip(100) // inside the first data block: Open succeeds, reads see garbage
	for off := uint64(len(good)) - footerLen; off < uint64(len(good)); off += 4 {
		flip(off)
	}
	for off := ftr.checksumOff; off < ftr.checksumOff+ftr.checksumLen; off += 3 {
		flip(off)
	}
	for off := ftr.indexOff; off < ftr.indexOff+ftr.indexLen; off += 7 {
		flip(off)
	}
	flip(ftr.indexOff + 1 + uint64(len("user000000"))) // the max timestamp

	f.Fuzz(func(t *testing.T, data []byte) {
		unmarshalIndex(data, uint64(len(data)))

		fs := vfs.NewMemFS()
		writeAll(t, fs, "t.sst", data)
		r, err := Open(fs, "t.sst", nil)
		if err != nil {
			return
		}
		defer r.Close()
		for i := 0; i < len(cells); i += 37 {
			r.Get(cells[i].Key, kv.MaxTimestamp)
			r.Get([]byte(string(cells[i].Key)+"!"), 1) // absent, between two keys
		}
		it := r.Iterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			it.Cell()
		}
		it.Seek(kv.SeekKey(cells[len(cells)/2].Key, kv.MaxTimestamp))
		it.Seek(kv.SeekKey([]byte("user000007!"), kv.MaxTimestamp))
		for i := 0; i < r.NumBlocks(); i++ {
			r.VerifyBlock(i)
		}
	})
}
