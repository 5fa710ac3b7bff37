package cluster

import (
	"fmt"
	"testing"
)

// TestMultiRouteOneRegionAllocs pins what routing a batch that lands in
// one region allocates: grouping builds a few slices and no map (a
// map-grouped engine cost 16 allocations here).
func TestMultiRouteOneRegionAllocs(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	keys := make([][]byte, 20)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k1%04d", i)) // all in [k10, k20)
	}
	route := routeByKey("idx", func(i int) []byte { return keys[i] })
	var groups [][]int
	call := func(ri RegionInfo, s *RegionServer, group []int) error {
		groups = append(groups, group)
		return nil
	}
	if err := cl.multiRoute("idx", len(keys), route, call, nil); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != len(keys) {
		t.Fatalf("groups = %v, want one group of %d", groups, len(keys))
	}
	call = func(RegionInfo, *RegionServer, []int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if err := cl.multiRoute("idx", len(keys), route, call, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("routing a one-region batch: %.0f allocations, want at most 10", allocs)
	}
}
