// Package sstable implements the immutable on-disk LSM component: the
// paper's disk stores C1, C2, … (§2.1), HBase's HTable/HFile (§2.2). A table
// is a sorted run of internal-key/value entries laid out in fixed-target-size
// data blocks, followed by a Bloom filter over user keys, a block index, a
// checksum section and a fixed-size footer:
//
//	[data block]* [filter block] [index block] [checksum section] [footer]
//
// Point reads consult the Bloom filter, binary-search the in-memory block
// index, and read a single data block through the VFS — which is where the
// simulated disk latency is charged, making LSM reads pay random-I/O cost
// while writes remain sequential (§2.1's asymmetry).
//
// The index block opens with the table's smallest user key, its largest
// entry timestamp and the GC horizon of the store that wrote it, then records, per data block, its last and first internal keys
// and the offsets of every restartInterval-th entry. The first key gives
// zero-I/O gap rejection (a point get whose key falls between two blocks
// never reads either); the restart points turn the in-block entry scan into
// a binary search plus a short tail (DESIGN.md §12). Each data-block entry
// stores only the part of its key that differs from the previous key; a
// restart entry stores its whole key, so the search reads restart keys in
// place and a scan rebuilds keys from the restart before it.
//
// The checksum section holds one CRC32C (Castagnoli) per data block plus
// CRCs of the filter and index blocks, self-protected by a trailing section
// CRC. Open verifies the filter and index bytes against it before decoding
// them; data blocks are verified on read (behind a knob) and by the scrubber.
//
// There is one format. Nothing written through vfs outlives the process, so
// a file with any other magic is a malformed table, not an older version.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"diffindex/internal/kv"
)

// TargetBlockSize is the uncompressed size at which a data block is cut.
// 4 KiB mirrors typical HFile/LevelDB block sizing.
const TargetBlockSize = 4 * 1024

const (
	footerLen = 72
	magic     = 0xD1FF1DE0CAFEB10F

	// restartInterval is the entry spacing of in-block restart points: the
	// offset of every K-th entry is recorded in the index so an in-block
	// lookup binary-searches restarts and scans at most K entries (K/2
	// expected). K=8 keeps the expected tail at 4 entry decodes for ~14
	// extra uvarints per block in the index.
	restartInterval = 8
)

var (
	// ErrBadTable is returned when a table file fails structural checks.
	ErrBadTable = errors.New("sstable: malformed table")
	// ErrCorruption is returned when a block's content does not match its
	// recorded CRC32C — a silent data corruption, distinct from a structural
	// decode failure (ErrBadTable) or an I/O error.
	ErrCorruption = errors.New("sstable: checksum mismatch")
)

// castagnoli is the CRC32C polynomial table shared by writer, reader and
// scrubber.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC computes the CRC32C of one block's raw bytes.
func blockCRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

type footer struct {
	filterOff, filterLen     uint64
	indexOff, indexLen       uint64
	checksumOff, checksumLen uint64
	entryCount               uint64
	// tombstoneCount records how many entries are delete markers, letting
	// the compaction layer see per-table garbage pressure without reading
	// data blocks.
	tombstoneCount uint64
}

func (f footer) marshal() []byte {
	out := make([]byte, 0, footerLen)
	for _, v := range [...]uint64{
		f.filterOff, f.filterLen, f.indexOff, f.indexLen,
		f.checksumOff, f.checksumLen, f.entryCount, f.tombstoneCount, magic,
	} {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// unmarshalFooter decodes the footer from the last footerLen bytes of the
// file.
func unmarshalFooter(b []byte) (footer, error) {
	if len(b) != footerLen {
		return footer{}, fmt.Errorf("%w: footer length %d", ErrBadTable, len(b))
	}
	if binary.LittleEndian.Uint64(b[footerLen-8:]) != magic {
		return footer{}, fmt.Errorf("%w: bad magic", ErrBadTable)
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	return footer{
		filterOff: u(0), filterLen: u(1),
		indexOff: u(2), indexLen: u(3),
		checksumOff: u(4), checksumLen: u(5),
		entryCount: u(6), tombstoneCount: u(7),
	}, nil
}

// checksumSet holds a table's recorded CRCs: one per data block, plus the
// filter and index blocks. The marshaled section is self-protected by a
// trailing CRC of its own bytes, so a corrupted section is rejected at Open
// rather than silently mis-verifying data blocks.
type checksumSet struct {
	blocks []uint32
	filter uint32
	index  uint32
}

func (c checksumSet) marshal() []byte {
	out := binary.AppendUvarint(nil, uint64(len(c.blocks)))
	for _, crc := range c.blocks {
		out = binary.LittleEndian.AppendUint32(out, crc)
	}
	out = binary.LittleEndian.AppendUint32(out, c.filter)
	out = binary.LittleEndian.AppendUint32(out, c.index)
	return binary.LittleEndian.AppendUint32(out, blockCRC(out))
}

func unmarshalChecksums(b []byte) (checksumSet, error) {
	var c checksumSet
	if len(b) < 4 || blockCRC(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return c, fmt.Errorf("%w: checksum section", ErrCorruption)
	}
	b = b[:len(b)-4]
	n, sz := binary.Uvarint(b)
	// The count must account for exactly the bytes that remain: n block CRCs
	// plus the filter and index CRCs. Compared in words, not bytes, so a
	// huge n cannot wrap into a match.
	if rest := len(b) - sz; sz <= 0 || rest < 8 || rest%4 != 0 || n != uint64(rest/4-2) {
		return c, fmt.Errorf("%w: checksum count", ErrBadTable)
	}
	b = b[sz:]
	c.blocks = make([]uint32, n)
	for i := range c.blocks {
		c.blocks[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	c.filter = binary.LittleEndian.Uint32(b[4*n:])
	c.index = binary.LittleEndian.Uint32(b[4*n+4:])
	return c, nil
}

// blockHandle locates one data block within the file.
type blockHandle struct {
	offset, length uint64
}

// indexEntry describes one data block: its largest and smallest internal
// keys (the upper bound steers the block search; the lower bound lets point
// gets reject gap keys with zero I/O) and the in-block offsets of every
// restartInterval-th entry after the first, which the entry search binary-
// searches instead of walking the whole block.
type indexEntry struct {
	lastKey  []byte
	handle   blockHandle
	firstKey []byte
	restarts []uint32
}

// stamps are the two table-wide timestamps of the index block: the largest
// entry timestamp, the bound point reads skip tables by, and the GC horizon
// of the store that wrote the table (DESIGN.md §13).
type stamps struct {
	maxTs, horizon kv.Timestamp
}

// marshalIndex serializes the block index, prefixed with the table's
// smallest user key so readers recover both user-key bounds without a data-
// block read (the largest comes from the final entry's last key), and with
// its stamps (the index block is CRC-checked at Open, so a corrupted stamp
// fails Open). Restart offsets are delta-encoded; the implicit first
// restart at offset 0 is not stored.
func marshalIndex(smallest []byte, st stamps, entries []indexEntry) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(smallest)))
	out = append(out, smallest...)
	out = binary.AppendUvarint(out, uint64(st.maxTs))
	out = binary.AppendUvarint(out, uint64(st.horizon))
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e.lastKey)))
		out = append(out, e.lastKey...)
		out = binary.AppendUvarint(out, e.handle.offset)
		out = binary.AppendUvarint(out, e.handle.length)
		out = binary.AppendUvarint(out, uint64(len(e.firstKey)))
		out = append(out, e.firstKey...)
		out = binary.AppendUvarint(out, uint64(len(e.restarts)))
		prev := uint32(0)
		for _, r := range e.restarts {
			out = binary.AppendUvarint(out, uint64(r-prev))
			prev = r
		}
	}
	return out
}

// indexDecoder consumes an index block front to back. Every length and count
// it hands out is bounded by the bytes that remain, so a corrupted value
// fails the decode instead of sizing an allocation.
type indexDecoder struct {
	b   []byte
	bad bool
}

func (d *indexDecoder) uvarint() uint64 {
	v, sz := binary.Uvarint(d.b)
	if sz <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[sz:]
	return v
}

// count decodes the number of items that follow; each takes at least one
// byte.
func (d *indexDecoder) count() uint64 {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return n
}

// key decodes a length-prefixed byte string into its own allocation.
func (d *indexDecoder) key() []byte {
	n := d.count()
	k := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return k
}

// unmarshalIndex decodes an index block. dataEnd is the file offset where
// the data blocks end; every block handle must lie below it.
func unmarshalIndex(b []byte, dataEnd uint64) (smallest []byte, st stamps, entries []indexEntry, err error) {
	d := indexDecoder{b: b}
	if k := d.key(); len(k) > 0 {
		smallest = k
	}
	st = stamps{maxTs: kv.Timestamp(d.uvarint()), horizon: kv.Timestamp(d.uvarint())}
	n := d.count()
	entries = make([]indexEntry, 0, n)
	for i := uint64(0); i < n && !d.bad; i++ {
		e := indexEntry{lastKey: d.key()}
		e.handle = blockHandle{offset: d.uvarint(), length: d.uvarint()}
		if e.handle.offset > dataEnd || e.handle.length > dataEnd-e.handle.offset {
			return nil, stamps{}, nil, fmt.Errorf("%w: index block handle out of range", ErrBadTable)
		}
		e.firstKey = d.key()
		if nr := d.count(); nr > 0 {
			e.restarts = make([]uint32, 0, nr)
			prev := uint64(0)
			for j := uint64(0); j < nr; j++ {
				delta := d.uvarint()
				if delta > e.handle.length-prev {
					return nil, stamps{}, nil, fmt.Errorf("%w: restart past block end", ErrBadTable)
				}
				prev += delta
				e.restarts = append(e.restarts, uint32(prev))
			}
		}
		entries = append(entries, e)
	}
	if d.bad || len(d.b) != 0 {
		return nil, stamps{}, nil, fmt.Errorf("%w: index block", ErrBadTable)
	}
	return smallest, st, entries, nil
}

// appendBlockEntry appends one entry to a data block:
//
//	uvarint(shared) uvarint(len(suffix)) uvarint(len(value)) suffix value
//
// where shared is the length of the prefix ikey has in common with prev, the
// previous entry's key, and suffix is the rest of ikey. A restart entry
// passes a nil prev and so shares nothing: its suffix is its whole key.
func appendBlockEntry(dst, prev, ikey, value []byte) []byte {
	shared := 0
	for shared < len(prev) && shared < len(ikey) && prev[shared] == ikey[shared] {
		shared++
	}
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(ikey)-shared))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, ikey[shared:]...)
	return append(dst, value...)
}

// blockEntry decodes the entry at b, returning its shared-prefix length, key
// suffix, value and the number of bytes consumed (0 when b is exhausted or
// malformed). The suffix and value alias b. The two hot loops, nextEntry and
// the restart search, first try a fast path for entries whose three lengths
// are all one-byte varints — the short keys and values of typical entries —
// and fall back to this general decoder.
func blockEntry(b []byte) (shared uint64, suffix, value []byte, n int) {
	shared, s1 := binary.Uvarint(b)
	if s1 <= 0 {
		return 0, nil, nil, 0
	}
	klen, s2 := binary.Uvarint(b[s1:])
	if s2 <= 0 {
		return 0, nil, nil, 0
	}
	vlen, s3 := binary.Uvarint(b[s1+s2:])
	if s3 <= 0 {
		return 0, nil, nil, 0
	}
	head := s1 + s2 + s3
	rest := uint64(len(b) - head)
	if klen > rest || vlen > rest-klen {
		return 0, nil, nil, 0
	}
	end := head + int(klen)
	return shared, b[head:end], b[end : end+int(vlen)], end + int(vlen)
}

// nextEntry decodes the entry at blk[off:] on top of key, the previous
// entry's key: the shared prefix is already there, so only the suffix is
// appended, in key's own storage. It returns the entry's key and value and
// the offset of the following entry; next is negative when the entry is
// malformed, including one claiming a longer shared prefix than key has.
// The value aliases blk.
func nextEntry(blk []byte, off int, key []byte) (ikey, value []byte, next int) {
	b := blk[off:]
	if len(b) >= 3 && b[0]|b[1]|b[2] < 0x80 {
		shared, end := int(b[0]), 3+int(b[1])
		if vend := end + int(b[2]); shared <= len(key) && vend <= len(b) {
			return append(key[:shared], b[3:end]...), b[end:vend], off + vend
		}
		return key, nil, -1
	}
	shared, suffix, value, n := blockEntry(b)
	if n == 0 || shared > uint64(len(key)) {
		return key, nil, -1
	}
	return append(key[:shared], suffix...), value, off + n
}

// seekEntry finds the first entry in blk with internal key ≥ target,
// rebuilding keys in key's storage. It binary-searches the restart points —
// a restart entry shares nothing, so its key is compared in place — and then
// scans a ≤restartInterval-entry tail (from the block start when restarts is
// empty), never decoding past the target. found reports whether such an
// entry exists; next is the offset after it (len(blk) when every entry is
// below target), or negative on a malformed entry.
func seekEntry(blk []byte, restarts []uint32, target, key []byte) (ikey, value []byte, next int, found bool) {
	off := 0
	if len(restarts) > 0 {
		// First restart with key ≥ target; the scan starts one restart
		// earlier (the target may precede that restart's entry).
		j := sort.Search(len(restarts), func(j int) bool {
			b := blk[restarts[j]:]
			if len(b) < 3 || b[0] != 0 || b[1]|b[2] >= 0x80 || 3+int(b[1]) > len(b) {
				shared, suffix, _, n := blockEntry(b)
				if n == 0 || shared != 0 {
					return true // malformed: stay left, the scan reports it
				}
				return kv.CompareInternal(suffix, target) >= 0
			}
			return kv.CompareInternal(b[3:3+int(b[1])], target) >= 0
		})
		if j > 0 {
			off = int(restarts[j-1])
		}
	}
	key = key[:0]
	for off < len(blk) {
		if key, value, off = nextEntry(blk, off, key); off < 0 {
			return key, nil, off, false
		}
		if kv.CompareInternal(key, target) >= 0 {
			return key, value, off, true
		}
	}
	return key, nil, off, false
}
