package cluster

import (
	"fmt"
	"testing"
)

// keyBatch routes each of its keys and, when groups is non-nil, records
// the groups it is sent.
type keyBatch struct {
	keys   [][]byte
	groups [][]int
}

func (b *keyBatch) place(i int, regions []RegionInfo, dst []placement) ([]placement, error) {
	return placeKey(regions, b.keys[i], i, dst)
}

func (b *keyBatch) send(_ RegionInfo, _ *RegionServer, group []int) error {
	if b.groups != nil {
		b.groups = append(b.groups, append([]int(nil), group...))
	}
	return nil
}

// TestMultiRouteOneRegionAllocs pins what routing a batch that lands in
// one region allocates: grouping builds no map (a map-grouped engine cost
// 16 allocations here), and the engine's slices are reused across calls
// (fresh per call, they cost 6 even for one item).
func TestMultiRouteOneRegionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	keys := make([][]byte, 20)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k1%04d", i)) // all in [k10, k20)
	}
	rec := &keyBatch{keys: keys, groups: [][]int{}}
	if err := cl.multiRoute("idx", len(keys), rec, true); err != nil {
		t.Fatal(err)
	}
	if len(rec.groups) != 1 || len(rec.groups[0]) != len(keys) {
		t.Fatalf("groups = %v, want one group of %d", rec.groups, len(keys))
	}
	for _, n := range []int{1, len(keys)} {
		b := &keyBatch{keys: keys}
		allocs := testing.AllocsPerRun(100, func() {
			if err := cl.multiRoute("idx", n, b, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("routing a %d-item one-region batch: %.0f allocations, want at most 1", n, allocs)
		}
	}
}

// TestPutAllocs pins what a one-column Put into a warm region allocates,
// client routing, RPC, WAL and memtable together: 8 when single-row writes
// had a routing loop of their own, 7 when the trace boxed the WAL position.
func TestPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	row, cols := []byte("k15"), map[string][]byte{"a": []byte("v")}
	for range 100 {
		if _, err := cl.Put("t", row, cols); err != nil {
			t.Fatal(err)
		}
	}
	// Many runs: the slow-op log admits a falling share of early puts.
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := cl.Put("t", row, cols); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("one-column Put: %.0f allocations, want at most 6", allocs)
	}
}
