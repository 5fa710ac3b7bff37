package memtable

import (
	"diffindex/internal/kv"
)

// Memtable is the mutable in-memory LSM component. It stores multi-versioned
// cells under internal keys; every write is an append (no in-place update,
// §2.1) and deletes insert tombstones.
type Memtable struct {
	list *skiplist
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{list: newSkiplist()}
}

// Put inserts a value version for key at timestamp ts.
func (m *Memtable) Put(key, value []byte, ts kv.Timestamp) {
	m.list.set(kv.InternalKey(key, ts, kv.KindPut), value)
}

// Delete inserts a tombstone for key at timestamp ts, masking all versions
// with timestamp ≤ ts.
func (m *Memtable) Delete(key []byte, ts kv.Timestamp) {
	m.list.set(kv.InternalKey(key, ts, kv.KindDelete), nil)
}

// Add inserts a pre-built cell (used by WAL replay, which must reuse the
// original timestamps so that re-application is idempotent).
func (m *Memtable) Add(c kv.Cell) {
	m.list.set(kv.InternalKey(c.Key, c.Ts, c.Kind), c.Value)
}

// Get returns the newest version of key with timestamp ≤ ts. The returned
// cell may be a tombstone, which callers must treat as "deleted". The second
// result reports whether any version was found in this memtable.
func (m *Memtable) Get(key []byte, ts kv.Timestamp) (kv.Cell, bool) {
	it := &iterator{list: m.list}
	var seekArr [128]byte // the seek key stays on the stack
	it.seek(kv.AppendInternalKey(seekArr[:0], key, ts, kv.KindDelete))
	if !it.valid() {
		return kv.Cell{}, false
	}
	uk, vts, kind, err := kv.ParseInternalKey(it.key())
	if err != nil || string(uk) != string(key) {
		return kv.Cell{}, false
	}
	return kv.Cell{Key: uk, Value: it.val(), Ts: vts, Kind: kind}, true
}

// ApproximateBytes returns the estimated memory footprint, used to trigger
// flushes at the configured memtable size.
func (m *Memtable) ApproximateBytes() int64 { return m.list.bytes.Load() }

// Len returns the number of stored versions (not distinct user keys).
func (m *Memtable) Len() int64 { return m.list.count.Load() }

// Iterator returns a cursor over the memtable in internal-key order.
func (m *Memtable) Iterator() *Iterator {
	return &Iterator{it: iterator{list: m.list}}
}

// Iterator walks all versions in the memtable in internal-key order (user
// key ascending, timestamp descending, tombstones before puts at equal
// timestamps). It is safe to advance while writers insert concurrently.
type Iterator struct {
	it iterator
}

// SeekToFirst positions at the smallest internal key.
func (i *Iterator) SeekToFirst() { i.it.seekToFirst() }

// Seek positions at the first entry with internal key ≥ ikey.
func (i *Iterator) Seek(ikey []byte) { i.it.seek(ikey) }

// SeekVersion positions at the newest version of userKey visible at ts.
func (i *Iterator) SeekVersion(userKey []byte, ts kv.Timestamp) {
	i.it.seek(kv.SeekKey(userKey, ts))
}

// Valid reports whether the iterator is positioned at an entry.
func (i *Iterator) Valid() bool { return i.it.valid() }

// Next advances to the next entry.
func (i *Iterator) Next() { i.it.next() }

// InternalKey returns the current entry's internal key. The slice must not
// be modified.
func (i *Iterator) InternalKey() []byte { return i.it.key() }

// Cell decodes the current entry.
func (i *Iterator) Cell() kv.Cell {
	uk, ts, kind, _ := kv.ParseInternalKey(i.it.key())
	return kv.Cell{Key: uk, Value: i.it.val(), Ts: ts, Kind: kind}
}
