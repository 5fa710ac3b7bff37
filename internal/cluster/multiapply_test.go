package cluster

import (
	"fmt"
	"testing"

	"diffindex/internal/kv"
)

// multiApplyCells builds n pre-timestamped raw cells with keys spread across
// the whole keyspace ("k00".."k<n-1>").
func multiApplyCells(n int, tsBase kv.Timestamp) []kv.Cell {
	cells := make([]kv.Cell, n)
	for i := range cells {
		cells[i] = kv.Cell{
			Key:   []byte(fmt.Sprintf("k%02d", i)),
			Value: []byte(fmt.Sprintf("v%02d", i)),
			Ts:    tsBase + kv.Timestamp(i),
			Kind:  kv.KindPut,
		}
	}
	return cells
}

// TestMultiApplySpansRegions checks the core batching contract: cells
// spanning ≥3 regions land in the right regions, with exactly one Apply RPC
// per destination region.
func TestMultiApplySpansRegions(t *testing.T) {
	c := newTestCluster(t, 3)
	// Raw table with 3 regions: (-∞,k10), [k10,k20), [k20,+∞).
	if err := c.Master.CreateRawTable("idx", [][]byte{[]byte("k10"), []byte("k20")}); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")

	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Metrics().Value("diffindex_apply_rpcs_total"); got != 3 {
		t.Errorf("RPCs = %d, want 3 (one per destination region)", got)
	}
	if got, _ := c.Metrics().Value("diffindex_apply_cells_total"); got != 30 {
		t.Errorf("Cells = %d, want 30", got)
	}

	// Every cell must be readable, and must live in the region its key
	// routes to (verified by a direct region-server read, no client rerouting).
	regions, err := c.Master.RegionsOf("idx")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	for _, cell := range cells {
		p, ok := regionIndex(regions, cell.Key)
		if !ok {
			t.Fatalf("no region for %q", cell.Key)
		}
		ri := regions[p]
		res, err := c.Server(ri.Server).MultiGet(ri.ID, [][]byte{cell.Key}, kv.MaxTimestamp)
		if err != nil || !res[0].Found {
			t.Fatalf("cell %q not in its region %s: res=%v err=%v", cell.Key, ri.ID, res, err)
		}
		if got := res[0].Cell; string(got.Value) != string(cell.Value) || got.Ts != cell.Ts {
			t.Errorf("cell %q: got (%q, %d), want (%q, %d)", cell.Key, got.Value, got.Ts, cell.Value, cell.Ts)
		}
	}
}

// TestMultiApplyRegionMoveRetries checks the failure path: the client's
// cached partition map goes stale (a region splits after the cache warmed),
// the first dispatch of the batch hits the dead parent region, and
// MultiApply must invalidate + regroup + retry so that no cell is lost —
// and, because cells carry fixed timestamps, none is duplicated.
func TestMultiApplyRegionMoveRetries(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", [][]byte{[]byte("k10")}); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")

	// Warm the partition map, then split the upper region behind the
	// client's back: routes for [k10,+∞) now point at a region that no
	// longer exists.
	if err := cl.MultiApply("idx", multiApplyCells(4, 100)); err != nil {
		t.Fatal(err)
	}
	regions, err := c.Master.RegionsOf("idx")
	if err != nil {
		t.Fatal(err)
	}
	var upper RegionInfo
	for _, ri := range regions {
		if ri.Contains([]byte("k25")) {
			upper = ri
		}
	}
	if err := c.Master.SplitRegion(upper.ID, []byte("k20")); err != nil {
		t.Fatal(err)
	}

	// A batch spanning all (now three) regions: the stale groups bounce
	// with ErrRegionNotFound and must be retried against the fresh map.
	cells := multiApplyCells(30, 200)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}

	// No cell lost: every key readable at its exact timestamp. No cell
	// duplicated: a full scan returns exactly one visible version per key.
	results, err := rawScan(cl, "idx", nil, nil, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]kv.Timestamp)
	for _, res := range results {
		if prev, dup := byKey[string(res.Key)]; dup {
			t.Fatalf("key %q returned twice (ts %d and %d)", res.Key, prev, res.Ts)
		}
		byKey[string(res.Key)] = res.Ts
	}
	for _, cell := range cells {
		ts, ok := byKey[string(cell.Key)]
		if !ok {
			t.Errorf("cell %q lost during region move", cell.Key)
			continue
		}
		if ts != cell.Ts {
			t.Errorf("cell %q: visible ts %d, want %d", cell.Key, ts, cell.Ts)
		}
	}

	// The retry path must have re-sent only the failed groups — total
	// delivered cells is the two successful batches, nothing more.
	if got, _ := c.Metrics().Value("diffindex_apply_cells_total"); got != 4+30 {
		t.Errorf("delivered cells = %d, want %d", got, 4+30)
	}
}
