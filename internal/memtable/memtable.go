// Package memtable implements the in-memory component of the LSM tree: the
// paper's mem-store (§2.1), HBase's MemTable (§2.2). Writes append versioned
// cells to a concurrent skip list; at capacity the LSM store flushes the
// memtable's contents to an immutable SSTable. The skip list follows the
// LevelDB design: writers are serialized by a mutex, readers traverse atomic
// links without locking, and nodes are never unlinked (the memtable is
// discarded wholesale after flush).
//
// The list lives in an arena without Go pointers: nodes sit in fixed-size
// blocks and link by index, keys and values are copied into byte chunks, and
// the GC sees a few noscan objects per memtable, not several per cell.
package memtable

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"diffindex/internal/kv"
)

const (
	maxHeight  = 12       // covers 4^12 entries at branching factor 4
	blockNodes = 512      // nodes per node block
	chunkBytes = 64 << 10 // bytes per data chunk; a larger value gets a chunk of its own
)

// node is one skip-list entry. It holds only integers.
type node struct {
	key   uint64                   // ref of the internal key: userKey · ^ts · kind
	value atomic.Uint64            // ref of the value; an idempotent overwrite replaces it
	tower [maxHeight]atomic.Uint32 // next node's index per level; 0 (the head) ends a level
}

// A ref locates arena bytes: chunk index (16 bits), offset in the chunk (16
// bits) and length (32 bits). Zero is the empty slice.
func ref(chunk, off, n int) uint64 { return uint64(chunk)<<48 | uint64(off)<<32 | uint64(n) }

// arena is the directory node indices and refs resolve against. The writer
// publishes a grown one before it links any node that lives in a new block
// or refers to a new chunk. Appends to its slices write only past the
// lengths older arenas hold, so their readers never see them.
type arena struct {
	blocks []*[blockNodes]node
	chunks [][]byte
}

// Memtable is the mutable in-memory LSM component. It stores multi-versioned
// cells under internal keys; every write is an append (no in-place update,
// §2.1) and deletes insert tombstones.
type Memtable struct {
	arena  atomic.Pointer[arena]
	height atomic.Int32
	bytes  atomic.Int64
	count  atomic.Int64

	mu    sync.Mutex // serializes writers and guards the fields below
	nodes uint32     // nodes allocated, the head included
	cur   int        // the chunk allocations fill; -1 before the first
	used  int        // bytes of chunk cur in use
	rng   *rand.Rand
}

// New returns an empty memtable.
func New() *Memtable {
	m := &Memtable{nodes: 1, cur: -1, rng: rand.New(rand.NewSource(0x5EED))}
	m.arena.Store(&arena{blocks: []*[blockNodes]node{new([blockNodes]node)}})
	m.height.Store(1)
	return m
}

// Put inserts a value version for key at timestamp ts.
func (m *Memtable) Put(key, value []byte, ts kv.Timestamp) {
	m.Add(kv.Cell{Key: key, Value: value, Ts: ts, Kind: kv.KindPut})
}

// Delete inserts a tombstone for key at timestamp ts, masking all versions
// with timestamp ≤ ts.
func (m *Memtable) Delete(key []byte, ts kv.Timestamp) {
	m.Add(kv.Cell{Key: key, Ts: ts, Kind: kv.KindDelete})
}

// Add inserts a cell; WAL replay uses it with the original timestamps, so
// that re-application is idempotent. The key and value are copied into the
// arena, the internal key built in place. A second write of the same
// (userKey, ts, kind) replaces the value (§5.3: replayed puts reuse
// timestamps) and leaves the new key's bytes unused.
func (m *Memtable) Add(c kv.Cell) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ikey := m.alloc(len(c.Key) + kv.InternalSuffixLen)
	kv.AppendInternalKey(ikey[:0], c.Key, c.Ts, c.Kind)
	val, b := m.alloc(len(c.Value))
	copy(b, c.Value)
	v := view{m, m.arena.Load()}
	var prev [maxHeight]uint32 // levels above the list's height keep 0, the head
	if n := v.seek(ikey, &prev); n != nil && kv.CompareInternal(v.bytes(n.key), ikey) == 0 {
		old := n.value.Swap(val)
		m.bytes.Add(int64(len(c.Value)) - int64(uint32(old)))
		return
	}
	h := 1
	for h < maxHeight && m.rng.Intn(4) == 0 {
		h++
	}
	m.height.Store(max(m.height.Load(), int32(h)))
	i, a := m.nodes, m.arena.Load()
	m.nodes++
	if int(i/blockNodes) == len(a.blocks) {
		g := *a
		g.blocks = append(g.blocks, new([blockNodes]node))
		m.arena.Store(&g)
	}
	n := v.node(i)
	n.key = k
	n.value.Store(val)
	for l := 0; l < h; l++ { // the node is filled: publish it
		p := v.at(prev[l])
		n.tower[l].Store(p.tower[l].Load())
		p.tower[l].Store(i)
	}
	m.bytes.Add(int64(len(ikey)+len(c.Value)) + 64) // 64 ≈ per-node overhead
	m.count.Add(1)
}

// alloc reserves n arena bytes and returns their ref and the bytes,
// publishing a new chunk when the current one lacks room. The caller holds mu.
func (m *Memtable) alloc(n int) (uint64, []byte) {
	if n == 0 {
		return 0, nil
	}
	a := m.arena.Load()
	if m.cur < 0 || m.used+n > chunkBytes { // a chunk of n > chunkBytes is full at once
		if len(a.chunks) == 1<<16 || uint64(n) >= 1<<32 {
			panic("memtable: arena full")
		}
		g := *a
		g.chunks = append(g.chunks, make([]byte, max(n, chunkBytes)))
		a = &g
		m.arena.Store(a)
		m.cur, m.used = len(a.chunks)-1, 0
	}
	off := m.used
	m.used += n
	return ref(m.cur, off, n), a.chunks[m.cur][off : off+n : off+n]
}

// Get returns the newest version of key with timestamp ≤ ts. The returned
// cell may be a tombstone, which callers must treat as "deleted". The second
// result reports whether any version was found in this memtable.
func (m *Memtable) Get(key []byte, ts kv.Timestamp) (kv.Cell, bool) {
	it := Iterator{v: view{m, m.arena.Load()}}
	var seekArr [128]byte // the seek key stays on the stack
	if it.Seek(kv.AppendInternalKey(seekArr[:0], key, ts, kv.KindDelete)); it.Valid() {
		if c := it.Cell(); string(c.Key) == string(key) {
			return c, true
		}
	}
	return kv.Cell{}, false
}

// ApproximateBytes returns the estimated memory footprint, used to trigger
// flushes at the configured memtable size.
func (m *Memtable) ApproximateBytes() int64 { return m.bytes.Load() }

// Len returns the number of stored versions (not distinct user keys).
func (m *Memtable) Len() int64 { return m.count.Load() }

// view is a reader's handle on the list: the arena it loaded last. A node
// index or ref beyond it was published later, and reloads it.
type view struct {
	m *Memtable
	a *arena
}

// at resolves the index of a node the view's arena holds; 0 is the head.
func (v *view) at(i uint32) *node { return &v.a.blocks[i/blockNodes][i%blockNodes] }

// node resolves a tower entry: nil for 0, which ends a level.
func (v *view) node(i uint32) *node {
	if i == 0 {
		return nil
	}
	if int(i/blockNodes) >= len(v.a.blocks) {
		v.a = v.m.arena.Load()
	}
	return v.at(i)
}

// bytes resolves a ref; the slice's capacity ends with it, so appends miss the arena.
func (v *view) bytes(r uint64) []byte {
	c, off, n := int(r>>48), int(r>>32&0xffff), int(uint32(r))
	if n == 0 {
		return nil
	}
	if c >= len(v.a.chunks) {
		v.a = v.m.arena.Load()
	}
	return v.a.chunks[c][off : off+n : off+n]
}

// seek returns the first node with internal key ≥ key, or nil, filling prev
// (when non-nil) with the predecessor's index at every level. The node that
// ended the level above is not compared again.
func (v *view) seek(key []byte, prev *[maxHeight]uint32) *node {
	x, xi, ge := v.at(0), uint32(0), uint32(0)
	for level := int(v.m.height.Load()) - 1; ; level-- {
		ni := x.tower[level].Load()
		for ni != 0 && ni != ge {
			next := v.node(ni)
			if kv.CompareInternal(v.bytes(next.key), key) >= 0 {
				break
			}
			x, xi, ni = next, ni, next.tower[level].Load()
		}
		ge = ni
		if prev != nil {
			prev[level] = xi
		}
		if level == 0 {
			return v.node(ge)
		}
	}
}

// Iterator returns a cursor over the memtable in internal-key order.
func (m *Memtable) Iterator() *Iterator { return &Iterator{v: view{m, m.arena.Load()}} }

// Iterator walks all versions in the memtable in internal-key order (user
// key ascending, timestamp descending, tombstones before puts at equal
// timestamps). It is safe to advance while writers insert concurrently: it
// observes a superset of the entries present when it was created.
type Iterator struct {
	v view
	n *node
}

// SeekToFirst positions at the smallest internal key.
func (i *Iterator) SeekToFirst() { i.n = i.v.node(i.v.at(0).tower[0].Load()) }

// Seek positions at the first entry with internal key ≥ ikey.
func (i *Iterator) Seek(ikey []byte) { i.n = i.v.seek(ikey, nil) }

// SeekVersion positions at the newest version of userKey visible at ts.
func (i *Iterator) SeekVersion(userKey []byte, ts kv.Timestamp) { i.Seek(kv.SeekKey(userKey, ts)) }

// Valid reports whether the iterator is positioned at an entry.
func (i *Iterator) Valid() bool { return i.n != nil }

// Next advances to the next entry.
func (i *Iterator) Next() { i.n = i.v.node(i.n.tower[0].Load()) }

// InternalKey returns the current entry's internal key, not to be modified.
func (i *Iterator) InternalKey() []byte { return i.v.bytes(i.n.key) }

// Cell decodes the current entry.
func (i *Iterator) Cell() kv.Cell {
	uk, ts, kind, _ := kv.ParseInternalKey(i.InternalKey())
	return kv.Cell{Key: uk, Value: i.v.bytes(i.n.value.Load()), Ts: ts, Kind: kind}
}
