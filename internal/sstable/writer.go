package sstable

import (
	"fmt"

	"diffindex/internal/bloom"
	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// Writer builds an SSTable from entries added in ascending internal-key
// order (flushes iterate the memtable in order; compactions merge sorted
// runs, so both producers satisfy this naturally).
type Writer struct {
	f    vfs.File
	name string

	block    []byte
	blockOff uint64
	index    []indexEntry
	lastKey  []byte

	// Per-open-block state: the block's first internal key, the restart
	// offsets of every restartInterval-th entry after the first, and the
	// running entry count within the block.
	blockFirstKey []byte
	blockRestarts []uint32
	blockEntries  int

	// Bloom filter entries, as bloom.Hash sums: every distinct user key,
	// and every distinct first composite part (kv.FirstPartLen) so
	// single-part scans can skip the table — HBase's ROWCOL and ROW filters
	// in one.
	filterHashes []uint64
	lastUser     []byte
	lastFirst    []byte

	smallest, largest []byte // user-key bounds
	stamps            stamps
	count             uint64
	tombstones        uint64
	finished          bool

	crcs checksumSet
}

// NewWriter creates the named table file.
func NewWriter(fs vfs.FS, name string) (*Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("sstable: create %s: %w", name, err)
	}
	return &Writer{f: f, name: name}, nil
}

// SetHorizon records the GC horizon of the store writing the table, which
// Reader.Horizon returns (DESIGN.md §13).
func (w *Writer) SetHorizon(h kv.Timestamp) { w.stamps.horizon = h }

// Add appends one entry. Entries must arrive in strictly ascending internal
// key order.
func (w *Writer) Add(ikey, value []byte) error {
	if w.finished {
		return fmt.Errorf("sstable: writer for %s already finished", w.name)
	}
	if w.lastKey != nil && kv.CompareInternal(ikey, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: out-of-order key %x after %x", ikey, w.lastKey)
	}
	user, ts, kind, err := kv.ParseInternalKey(ikey)
	if err != nil {
		return fmt.Errorf("sstable: %w", err)
	}
	prev := w.lastKey // the key this entry's shared prefix refers to
	if w.blockEntries == 0 {
		w.blockFirstKey = append([]byte(nil), ikey...)
		prev = nil
	} else if w.blockEntries%restartInterval == 0 {
		w.blockRestarts = append(w.blockRestarts, uint32(len(w.block)))
		prev = nil
	}
	w.blockEntries++
	w.block = appendBlockEntry(w.block, prev, ikey, value)
	w.lastKey = append(w.lastKey[:0], ikey...)

	if w.lastUser == nil || string(user) != string(w.lastUser) {
		w.filterHashes = append(w.filterHashes, bloom.Hash(user))
		w.lastUser = append(w.lastUser[:0], user...)
		// Keys sharing a first part are adjacent, so comparing with the
		// previous one deduplicates. A key that is exactly one part is
		// already in the filter as itself.
		if n := kv.FirstPartLen(user); n > 0 && string(user[:n]) != string(w.lastFirst) {
			w.lastFirst = append(w.lastFirst[:0], user[:n]...)
			if n < len(user) {
				w.filterHashes = append(w.filterHashes, bloom.Hash(user[:n]))
			}
		}
	}
	if w.smallest == nil {
		w.smallest = append([]byte(nil), user...)
	}
	w.largest = append(w.largest[:0], user...)
	if w.count == 0 || ts > w.stamps.maxTs {
		w.stamps.maxTs = ts
	}
	w.count++
	if kind == kv.KindDelete {
		w.tombstones++
	}
	if len(w.block) >= TargetBlockSize {
		return w.cutBlock()
	}
	return nil
}

func (w *Writer) cutBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	n, err := w.f.Write(w.block)
	if err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	w.crcs.blocks = append(w.crcs.blocks, blockCRC(w.block))
	w.index = append(w.index, indexEntry{
		lastKey:  append([]byte(nil), w.lastKey...),
		handle:   blockHandle{offset: w.blockOff, length: uint64(n)},
		firstKey: w.blockFirstKey,
		restarts: w.blockRestarts,
	})
	w.blockFirstKey, w.blockRestarts, w.blockEntries = nil, nil, 0
	w.blockOff += uint64(n)
	w.block = w.block[:0]
	return nil
}

// Finish flushes the remaining block, writes the filter, index and checksum
// sections and the footer, syncs, and closes the file. The writer cannot be
// reused.
func (w *Writer) Finish() error {
	if w.finished {
		return fmt.Errorf("sstable: writer for %s already finished", w.name)
	}
	w.finished = true
	if err := w.cutBlock(); err != nil {
		return err
	}

	var ftr footer
	ftr.entryCount = w.count
	ftr.tombstoneCount = w.tombstones

	filter := bloom.New(w.filterHashes, bloom.BitsPerKey).Marshal()
	ftr.filterOff = w.blockOff
	ftr.filterLen = uint64(len(filter))
	if _, err := w.f.Write(filter); err != nil {
		return fmt.Errorf("sstable: write filter: %w", err)
	}
	w.blockOff += uint64(len(filter))

	idx := marshalIndex(w.smallest, w.stamps, w.index)
	ftr.indexOff = w.blockOff
	ftr.indexLen = uint64(len(idx))
	if _, err := w.f.Write(idx); err != nil {
		return fmt.Errorf("sstable: write index: %w", err)
	}
	w.blockOff += uint64(len(idx))

	w.crcs.filter = blockCRC(filter)
	w.crcs.index = blockCRC(idx)
	sums := w.crcs.marshal()
	ftr.checksumOff = w.blockOff
	ftr.checksumLen = uint64(len(sums))
	if _, err := w.f.Write(sums); err != nil {
		return fmt.Errorf("sstable: write checksums: %w", err)
	}
	w.blockOff += uint64(len(sums))

	if _, err := w.f.Write(ftr.marshal()); err != nil {
		return fmt.Errorf("sstable: write footer: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("sstable: sync: %w", err)
	}
	return w.f.Close()
}

// Abandon closes the underlying file without finishing the table. The caller
// is responsible for removing the partial file.
func (w *Writer) Abandon() error {
	w.finished = true
	return w.f.Close()
}

// Count returns the number of entries added so far.
func (w *Writer) Count() uint64 { return w.count }
