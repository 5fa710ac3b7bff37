package sstable

import (
	"bytes"
	"fmt"
	"sort"

	"diffindex/internal/bloom"
	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// Reader serves point lookups and scans from one immutable table file. The
// block index and Bloom filter are held in memory (as HBase keeps HFile
// indexes and Blooms in the region server heap); data blocks are read
// through the VFS on demand and optionally cached in a shared BlockCache.
type Reader struct {
	f     vfs.File
	name  string
	cache *BlockCache

	index  []indexEntry
	filter *bloom.Filter

	smallest   []byte // smallest user key, from the index block
	largest    []byte // largest user key, from the index block
	stamps     stamps
	count      uint64
	tombstones uint64
	size       int64

	crcs checksumSet
}

// Open opens a finished table file. cache may be nil to disable block
// caching.
func Open(fs vfs.FS, name string, cache *BlockCache) (*Reader, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("sstable: open %s: %w", name, err)
	}
	r, err := newReader(f, name, cache)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newReader(f vfs.File, name string, cache *BlockCache) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLen {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrBadTable, name, size)
	}
	// section reads [off, off+n) after checking the range against the file:
	// a corrupted footer must fail structurally, not panic allocating a
	// garbage-length buffer.
	section := func(what string, off, n uint64) ([]byte, error) {
		if off > uint64(size) || n > uint64(size)-off {
			return nil, fmt.Errorf("%w: %s %s out of range", ErrBadTable, name, what)
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, int64(off)); err != nil {
			return nil, fmt.Errorf("sstable: read %s of %s: %w", what, name, err)
		}
		return buf, nil
	}

	buf, err := section("footer", uint64(size-footerLen), footerLen)
	if err != nil {
		return nil, err
	}
	ftr, err := unmarshalFooter(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sumBuf, err := section("checksums", ftr.checksumOff, ftr.checksumLen)
	if err != nil {
		return nil, err
	}
	crcs, err := unmarshalChecksums(sumBuf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// Verify the filter and index bytes before decoding them, so a table
	// with corrupted metadata never reaches a decoder, let alone a read.
	fltBuf, err := section("filter", ftr.filterOff, ftr.filterLen)
	if err != nil {
		return nil, err
	}
	if blockCRC(fltBuf) != crcs.filter {
		return nil, fmt.Errorf("%w: %s filter block", ErrCorruption, name)
	}
	idxBuf, err := section("index", ftr.indexOff, ftr.indexLen)
	if err != nil {
		return nil, err
	}
	if blockCRC(idxBuf) != crcs.index {
		return nil, fmt.Errorf("%w: %s index block", ErrCorruption, name)
	}

	filter, err := bloom.Unmarshal(fltBuf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadTable, name, err)
	}
	// Data blocks precede the filter block.
	smallest, st, index, err := unmarshalIndex(idxBuf, ftr.filterOff)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(crcs.blocks) != len(index) {
		return nil, fmt.Errorf("%w: %s has %d block checksums for %d blocks",
			ErrBadTable, name, len(crcs.blocks), len(index))
	}

	r := &Reader{
		f:          f,
		name:       name,
		cache:      cache,
		index:      index,
		filter:     filter,
		smallest:   smallest,
		stamps:     st,
		count:      ftr.entryCount,
		tombstones: ftr.tombstoneCount,
		size:       size,
		crcs:       crcs,
	}
	if len(index) > 0 {
		// Recover user-key bounds without a data-block read: the smallest
		// key is persisted at the head of the index block, the largest is
		// the final block's last key.
		r.largest = append([]byte(nil), kv.InternalUserKey(index[len(index)-1].lastKey)...)
	}
	return r, nil
}

// Name returns the file name the reader was opened from.
func (r *Reader) Name() string { return r.name }

// EntryCount returns the number of entries in the table.
func (r *Reader) EntryCount() uint64 { return r.count }

// TombstoneCount returns the number of delete markers in the table,
// recorded in the footer at write time — per-table garbage pressure
// readable without touching data blocks.
func (r *Reader) TombstoneCount() uint64 { return r.tombstones }

// Size returns the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// SmallestUserKey returns the smallest user key in the table (nil for an
// empty table).
func (r *Reader) SmallestUserKey() []byte { return r.smallest }

// LargestUserKey returns the largest user key in the table (nil for an empty
// table).
func (r *Reader) LargestUserKey() []byte { return r.largest }

// MaxTimestamp returns the largest timestamp of any entry in the table,
// tombstones included (0 for an empty table). A point read that already holds
// a version newer than this needs nothing from the table.
func (r *Reader) MaxTimestamp() kv.Timestamp { return r.stamps.maxTs }

// Horizon returns the GC horizon the writing store had given the table
// (SetHorizon): the store that opens it restores its horizon as the maximum
// over its tables.
func (r *Reader) Horizon() kv.Timestamp { return r.stamps.horizon }

// MayContainKey reports whether userKey falls inside the table's
// [smallest, largest] user-key range — a zero-I/O pre-check point reads use
// to skip tables that cannot hold the key. Conservative: an empty range
// (no persisted bounds) returns true.
func (r *Reader) MayContainKey(userKey []byte) bool {
	if r.smallest == nil || r.largest == nil {
		return len(r.index) > 0
	}
	return bytes.Compare(userKey, r.smallest) >= 0 && bytes.Compare(userKey, r.largest) <= 0
}

// MayContainPrefix reports whether the table may hold a user key that
// begins with prefix — the zero-I/O check a single-part scan (a row read, an
// exact-value index read) uses to skip tables. The [smallest, largest]
// bounds are checked first; when prefix is one complete composite part the
// Bloom filter, which holds every key's first part, is consulted too.
// Conservative: any other prefix passes the filter.
func (r *Reader) MayContainPrefix(prefix []byte) bool {
	if r.smallest == nil || r.largest == nil {
		return len(r.index) > 0
	}
	if bytes.Compare(r.largest, prefix) < 0 {
		return false // every key sorts below the prefix
	}
	if bytes.Compare(r.smallest, prefix) > 0 && !bytes.HasPrefix(r.smallest, prefix) {
		return false // every key sorts above the prefix's range
	}
	if kv.FirstPartLen(prefix) != len(prefix) {
		return true
	}
	return r.filter.MayContain(prefix)
}

// Close releases the underlying file handle.
func (r *Reader) Close() error { return r.f.Close() }

// NumBlocks returns the number of data blocks in the table.
func (r *Reader) NumBlocks() int { return len(r.index) }

// TableInfo summarizes a table's shape and lookup-accelerator footprint —
// the per-table view `lsmtool stats` prints for operators.
type TableInfo struct {
	Blocks       int
	Entries      uint64
	Restarts     int // total in-block restart points across all blocks
	MaxTimestamp kv.Timestamp
}

// Info returns the table's shape summary.
func (r *Reader) Info() TableInfo {
	info := TableInfo{Blocks: len(r.index), Entries: r.count, MaxTimestamp: r.stamps.maxTs}
	for i := range r.index {
		info.Restarts += len(r.index[i].restarts)
	}
	return info
}

// VerifyBlock re-reads the i-th data block directly from the file — bypassing
// the block cache in both directions, so a scrub neither hides at-rest
// corruption behind a cached copy nor evicts hot blocks — and checks it
// against the recorded CRC. It returns the number of bytes read.
// ErrCorruption reports a mismatch.
func (r *Reader) VerifyBlock(i int) (int, error) {
	h := r.index[i].handle
	buf := make([]byte, h.length)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return 0, fmt.Errorf("sstable: read block %d of %s: %w", i, r.name, err)
	}
	if blockCRC(buf) != r.crcs.blocks[i] {
		return len(buf), fmt.Errorf("%w: %s block %d", ErrCorruption, r.name, i)
	}
	return len(buf), nil
}

// block fetches the idx-th data block, via the cache when possible.
func (r *Reader) block(i int) ([]byte, error) {
	h := r.index[i].handle
	if b := r.cache.Get(r.name, h.offset); b != nil {
		return b, nil
	}
	buf := make([]byte, h.length)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable: read block %d of %s: %w", i, r.name, err)
	}
	r.cache.Put(r.name, h.offset, buf)
	return buf, nil
}

// seekBlock returns the position of the first block whose last key is ≥ ikey
// (i.e. the only block that can contain ikey), or len(index) when ikey is
// past the table's end.
func (r *Reader) seekBlock(ikey []byte) int {
	return sort.Search(len(r.index), func(i int) bool {
		return kv.CompareInternal(r.index[i].lastKey, ikey) >= 0
	})
}

// BlockMemo remembers the data block a run of GetMemo calls on one table
// fetched last, so keys walked in order that share a block fetch it once.
// The zero value is empty.
type BlockMemo struct {
	idx int // the block's index + 1; 0 while empty
	blk []byte
}

// Get returns the newest version of userKey with timestamp ≤ ts stored in
// this table. The returned cell may be a tombstone; its Key is userKey
// itself and its Value aliases the (immutable) block. The bool reports
// whether any visible version exists here.
func (r *Reader) Get(userKey []byte, ts kv.Timestamp) (kv.Cell, bool, error) {
	var memo BlockMemo
	return r.GetMemo(userKey, ts, &memo)
}

// GetMemo is Get through memo: a key in the block memo holds is served
// from it, and any block fetched replaces it.
func (r *Reader) GetMemo(userKey []byte, ts kv.Timestamp, memo *BlockMemo) (kv.Cell, bool, error) {
	if !r.filter.MayContain(userKey) {
		return kv.Cell{}, false, nil
	}
	// Seek key and decoded keys live in stack buffers: for ordinary key
	// lengths the hottest read path does zero allocations.
	var seekArr, keyArr [128]byte
	seek := kv.AppendInternalKey(seekArr[:0], userKey, ts, kv.KindDelete)
	bi := r.seekBlock(seek)
	if bi >= len(r.index) {
		return kv.Cell{}, false, nil
	}
	// Per-block lower bound: every block before bi ends below seek, so
	// if block bi already starts past userKey the key lives in the gap
	// between blocks — reject without any block I/O (the per-block analogue
	// of the table-level MayContainKey skip).
	if bytes.Compare(kv.InternalUserKey(r.index[bi].firstKey), userKey) > 0 {
		return kv.Cell{}, false, nil
	}
	if memo.idx != bi+1 {
		blk, err := r.block(bi)
		if err != nil {
			return kv.Cell{}, false, err
		}
		*memo = BlockMemo{idx: bi + 1, blk: blk}
	}
	ikey, val, next, found := seekEntry(memo.blk, r.index[bi].restarts, seek, keyArr[:0])
	if next < 0 {
		return kv.Cell{}, false, fmt.Errorf("%w: %s block %d", ErrBadTable, r.name, bi)
	}
	if !found {
		// seek falls past this block's last entry only if the index is
		// inconsistent; treat as not found.
		return kv.Cell{}, false, nil
	}
	uk, vts, kind, err := kv.ParseInternalKey(ikey)
	if err != nil {
		return kv.Cell{}, false, err
	}
	if string(uk) != string(userKey) {
		// First entry ≥ seek belongs to a later user key: no visible
		// version here. The scan never parses entries past this point.
		return kv.Cell{}, false, nil
	}
	return kv.Cell{Key: userKey, Value: val, Ts: vts, Kind: kind}, true, nil
}

// Iterator returns a cursor over the whole table in internal-key order.
func (r *Reader) Iterator() *Iterator {
	it := &Iterator{r: r, blockIdx: -1}
	it.ikey = it.keyArr[:0]
	return it
}

// Iterator walks a table's entries in internal-key order. Errors encountered
// while reading blocks are surfaced via Err and end the iteration.
type Iterator struct {
	r        *Reader
	blockIdx int
	blk      []byte
	off      int

	// ikey is rebuilt in place entry by entry (see nextEntry); keyArr is its
	// initial storage, so keys up to that size need no allocation.
	ikey, value []byte
	keyArr      [64]byte
	valid       bool
	err         error
}

// SeekToFirst positions at the table's first entry.
func (it *Iterator) SeekToFirst() {
	it.blockIdx = -1
	it.nextBlock()
}

// Seek positions at the first entry with internal key ≥ ikey.
func (it *Iterator) Seek(seek []byte) {
	it.valid = false
	it.err = nil
	bi := it.r.seekBlock(seek)
	if bi >= len(it.r.index) {
		return
	}
	it.blockIdx = bi
	if !it.loadBlock() {
		return
	}
	// A seek at or below the block's first key starts at offset 0 without a
	// search. A seek past the block's last entry (possible only when the
	// index is inconsistent) continues into the following block.
	e := &it.r.index[bi]
	if kv.CompareInternal(seek, e.firstKey) > 0 {
		ikey, val, next, found := seekEntry(it.blk, e.restarts, seek, it.ikey)
		it.ikey = ikey
		if next < 0 {
			it.fail(fmt.Errorf("%w: %s block %d", ErrBadTable, it.r.name, it.blockIdx))
			return
		}
		it.off = next
		if found {
			it.value, it.valid = val, true
			return
		}
	}
	it.stepEntry()
}

func (it *Iterator) fail(err error) {
	it.err = err
	it.valid = false
}

func (it *Iterator) loadBlock() bool {
	blk, err := it.r.block(it.blockIdx)
	if err != nil {
		it.fail(err)
		return false
	}
	// The block's first entry shares nothing, so the key restarts empty.
	it.blk, it.off, it.ikey = blk, 0, it.ikey[:0]
	return true
}

func (it *Iterator) advanceBlock() bool {
	it.blockIdx++
	if it.blockIdx >= len(it.r.index) {
		it.valid = false
		return false
	}
	return it.loadBlock()
}

func (it *Iterator) nextBlock() {
	if !it.advanceBlock() {
		return
	}
	it.stepEntry()
}

func (it *Iterator) stepEntry() {
	for {
		if it.off < len(it.blk) {
			ikey, val, next := nextEntry(it.blk, it.off, it.ikey)
			if next < 0 {
				it.fail(fmt.Errorf("%w: %s block %d", ErrBadTable, it.r.name, it.blockIdx))
				return
			}
			it.ikey, it.value, it.off, it.valid = ikey, val, next, true
			return
		}
		if !it.advanceBlock() {
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Next advances to the following entry.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	it.stepEntry()
}

// InternalKey returns the current internal key. It lives in the iterator's
// own key buffer: valid until the next Next or Seek.
func (it *Iterator) InternalKey() []byte { return it.ikey }

// Value returns the current value. It aliases the immutable block, so it
// stays valid after the iterator moves on.
func (it *Iterator) Value() []byte { return it.value }

// Cell decodes the current entry. Its Key, like InternalKey, is valid until
// the next Next or Seek.
func (it *Iterator) Cell() kv.Cell {
	uk, ts, kind, _ := kv.ParseInternalKey(it.ikey)
	return kv.Cell{Key: uk, Value: it.value, Ts: ts, Kind: kind}
}

// Err returns the first error encountered during iteration, if any.
func (it *Iterator) Err() error { return it.err }
