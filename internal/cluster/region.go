package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

// RegionInfo describes one key-range shard of a table. Start and End bound
// the region's routing keys: Start is inclusive (nil = −∞), End exclusive
// (nil = +∞). For base tables the routing key is the row key; for index
// tables it is the full index key.
type RegionInfo struct {
	ID     string
	Table  string
	Start  []byte
	End    []byte
	Server string // current assignment

	// rowLo and rowHi bound the store keys the region holds under a ByRow
	// scan; the client's route cache fills them.
	rowLo, rowHi []byte
	// raw marks a raw table, whose store keys are its routing keys; set
	// on the copies RegionsOf returns.
	raw bool
}

// Contains reports whether the routing key falls inside the region.
func (ri RegionInfo) Contains(key []byte) bool {
	if ri.Start != nil && bytes.Compare(key, ri.Start) < 0 {
		return false
	}
	if ri.End != nil && bytes.Compare(key, ri.End) >= 0 {
		return false
	}
	return true
}

// Overlaps reports whether the region intersects the routing-key range
// [start, end) (nil bounds are infinite).
func (ri RegionInfo) Overlaps(start, end []byte) bool {
	if ri.End != nil && start != nil && bytes.Compare(ri.End, start) <= 0 {
		return false
	}
	if ri.Start != nil && end != nil && bytes.Compare(end, ri.Start) <= 0 {
		return false
	}
	return true
}

func (ri RegionInfo) String() string {
	return fmt.Sprintf("%s[%q,%q)@%s", ri.ID, ri.Start, ri.End, ri.Server)
}

// Region is a hosted shard: RegionInfo plus its LSM store.
type Region struct {
	Info   RegionInfo
	store  *lsm.Store
	server *RegionServer
	// frozen marks the region as mid-split: requests bounce with
	// ErrRegionNotFound so clients re-route once the children appear.
	frozen atomic.Bool
	// ops counts data RPCs served by this region since the balancer last
	// collected loads (TakeRegionLoads swaps it back to zero).
	ops atomic.Int64
	// rowLocks (striped by row key) serialize same-row writes from timestamp
	// assignment to the end of the put pipeline, so a row's versions reach
	// the memtable in timestamp order. Index maintenance depends on it: the
	// pre-image read at ts−δ must see every write with a smaller timestamp,
	// or the entry that write inserts is never deleted.
	rowLocks [64]sync.Mutex
}

// lockRow locks row's stripe and returns it for the caller to unlock.
func (r *Region) lockRow(row []byte) *sync.Mutex {
	h := fnv.New32a()
	h.Write(row)
	mu := &r.rowLocks[h.Sum32()%uint32(len(r.rowLocks))]
	mu.Lock()
	return mu
}

// Store exposes the region's LSM store to coprocessors (local base reads,
// the paper's R_B, are direct store reads with no network hop).
func (r *Region) Store() *lsm.Store { return r.store }

// LocalGetRow reads every column of a base-table row visible at ts.
func (r *Region) LocalGetRow(row []byte, ts kv.Timestamp) (map[string][]byte, error) {
	prefix := kv.RowPrefix(row)
	results, err := r.store.Scan(prefix, kv.PrefixSuccessor(prefix), ts, 0)
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]byte, len(results))
	for _, res := range results {
		_, col, err := kv.SplitBaseKey(res.Key)
		if err != nil {
			return nil, err
		}
		cols[string(col)] = res.Value
	}
	return cols, nil
}
