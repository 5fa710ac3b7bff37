package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

// TestMultiGetSpansRegionsInputOrder checks the core batching contract:
// specs spanning ≥3 regions, given in an order that bears no relation to
// region layout, come back positionally — out[i] answers specs[i] — with
// misses reported in place.
func TestMultiGetSpansRegionsInputOrder(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}

	// Interleave the regions and sprinkle misses: 29, 0, 28, 1, … plus a
	// missing key after every fifth spec.
	var specs []GetSpec
	var want []*kv.Cell
	for i := 0; i < 15; i++ {
		for _, j := range []int{29 - i, i} {
			specs = append(specs, GetSpec{Key: cells[j].Key})
			want = append(want, &cells[j])
			if len(specs)%5 == 0 {
				specs = append(specs, GetSpec{Key: []byte(fmt.Sprintf("miss%02d", i))})
				want = append(want, nil)
			}
		}
	}

	out, err := cl.MultiGet("idx", specs, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(specs) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(specs))
	}
	for i, w := range want {
		if w == nil {
			if out[i].Found {
				t.Errorf("out[%d]: found %+v for missing key %q", i, out[i].Cell, specs[i].Key)
			}
			continue
		}
		if !out[i].Found || !bytes.Equal(out[i].Cell.Value, w.Value) || out[i].Cell.Ts != w.Ts {
			t.Errorf("out[%d] = %+v found=%v, want (%q, %d)", i, out[i].Cell, out[i].Found, w.Value, w.Ts)
		}
	}
}

// TestMultiGetStaleRouteRetries splits a region behind the client's warm
// partition map: the groups dispatched at the dead parent must bounce,
// invalidate the map, regroup against the fresh layout and retry — and the
// results must still land in input order.
func TestMultiGetStaleRouteRetries(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}

	// Split the upper region after the map warmed: routes for [k10,+∞) are
	// now stale.
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

	specs := make([]GetSpec, len(cells))
	for i := range cells {
		specs[len(cells)-1-i] = GetSpec{Key: cells[i].Key} // reverse order
	}
	out, err := cl.MultiGet("idx", specs, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want := cells[len(cells)-1-i]
		if !out[i].Found || !bytes.Equal(out[i].Cell.Value, want.Value) {
			t.Errorf("out[%d] (%q) = %+v found=%v, want %q", i, spec.Key, out[i].Cell, out[i].Found, want.Value)
		}
	}
}

// TestMultiGetServerCrashRetries crashes a region server between the write
// and the batched read: the stale groups fail with ErrServerDown, the
// regions recover elsewhere, and the retried MultiGet must still see every
// cell.
func TestMultiGetServerCrashRetries(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}

	// Crash the server hosting the middle region (map stays warm and stale).
	regions, err := c.Master.RegionsOf("idx")
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, ri := range regions {
		if ri.Contains([]byte("k15")) {
			victim = ri.Server
		}
	}
	if err := c.Master.CrashServer(victim); err != nil {
		t.Fatal(err)
	}

	specs := make([]GetSpec, len(cells))
	for i := range cells {
		specs[i] = GetSpec{Key: cells[i].Key}
	}
	out, err := cl.MultiGet("idx", specs, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !out[i].Found || !bytes.Equal(out[i].Cell.Value, cells[i].Value) {
			t.Errorf("out[%d] = %+v found=%v, want %q", i, out[i].Cell, out[i].Found, cells[i].Value)
		}
	}
}

// rawScan is a MultiScan of one ByKey spec: [start, end) of a raw table.
func rawScan(cl *Client, table string, start, end []byte, ts kv.Timestamp, limit int) ([]lsm.ScanResult, error) {
	res, err := cl.MultiScan(table, []ScanSpec{{Start: start, End: end}}, ts, limit)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// broadcastScan is a MultiScan of one ToAll spec: [start, end) read in
// every region of the table.
func broadcastScan(cl *Client, table string, start, end []byte, limit int) ([]lsm.ScanResult, error) {
	res, err := cl.MultiScan(table, []ScanSpec{{Start: start, End: end, Route: ToAll}}, kv.MaxTimestamp, limit)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// TestMultiGetRowInputOrder checks a MultiScan of row specs (the batched
// form of GetRow) against GetRow: same visible columns, positional results,
// nil for rows with no visible data.
func TestMultiGetRowInputOrder(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("users", splits("m", "t")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	rows := [][]byte{[]byte("alice"), []byte("mike"), []byte("zoe"), []byte("bob"), []byte("tina")}
	for i, row := range rows {
		cols := map[string][]byte{
			"city": []byte(fmt.Sprintf("city-%d", i)),
			"age":  []byte(fmt.Sprintf("%d", 20+i)),
		}
		if _, err := cl.Put("users", row, cols); err != nil {
			t.Fatal(err)
		}
	}

	// Query in scrambled order with misses interleaved.
	query := [][]byte{[]byte("zoe"), []byte("ghost"), []byte("alice"), []byte("tina"), []byte("nobody"), []byte("mike"), []byte("bob")}
	specs := make([]ScanSpec, len(query))
	for i, row := range query {
		specs[i] = RowSpec(row)
	}
	res, err := cl.MultiScan("users", specs, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range query {
		got, err := RowCols(res[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := cl.GetRow("users", row)
		if err != nil {
			t.Fatal(err)
		}
		if (got == nil) != (want == nil) {
			t.Errorf("row %q: MultiScan nil=%v, GetRow nil=%v", row, got == nil, want == nil)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("row %q: %d cols, want %d", row, len(got), len(want))
		}
		for col, val := range want {
			if !bytes.Equal(got[col], val) {
				t.Errorf("row %q col %q = %q, want %q", row, col, got[col], val)
			}
		}
	}
}

// TestBroadcastScanConcurrentDeterministic hammers a ToAll MultiScan from
// many goroutines (exercised under -race by ci.sh): every call must return
// the identical, deterministic result — all regions' entries merged into
// key order regardless of fan-out scheduling.
func TestBroadcastScanConcurrentDeterministic(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k08", "k16", "k24")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}

	baseline, err := broadcastScan(cl, "idx", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != len(cells) {
		t.Fatalf("baseline has %d entries, want %d", len(baseline), len(cells))
	}
	for i, cell := range cells {
		if !bytes.Equal(baseline[i].Key, cell.Key) {
			t.Fatalf("baseline[%d] = %q, want %q (not in key order)", i, baseline[i].Key, cell.Key)
		}
	}

	const goroutines = 8
	results := make([][]lsm.ScanResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine gets its own client: SetFanOut and the route
			// cache are per-client, but all fan-out machinery still runs
			// concurrently across goroutines AND within each call.
			gcl := NewClient(c, fmt.Sprintf("client-%d", g))
			results[g], errs[g] = broadcastScan(gcl, "idx", nil, nil, 0)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(results[g]) != len(baseline) {
			t.Fatalf("goroutine %d: %d entries, want %d", g, len(results[g]), len(baseline))
		}
		for i := range baseline {
			if !bytes.Equal(results[g][i].Key, baseline[i].Key) || !bytes.Equal(results[g][i].Value, baseline[i].Value) {
				t.Fatalf("goroutine %d: result[%d] = %q, want %q (non-deterministic order)", g, i, results[g][i].Key, baseline[i].Key)
			}
		}
	}
}

// TestBroadcastScanPerRegionLimit checks the pushed-down limit of a ToAll
// MultiScan: each region returns at most limit of its smallest entries, and
// the merge keeps the first limit of their union in key order — the exact
// global answer, even where it takes entries from several regions.
func TestBroadcastScanPerRegionLimit(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	if err := cl.MultiApply("idx", multiApplyCells(30, 100)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		start string
		limit int
		want  []string
	}{
		{"", 3, []string{"k00", "k01", "k02"}},
		{"k08", 4, []string{"k08", "k09", "k10", "k11"}},
		{"k19", 3, []string{"k19", "k20", "k21"}},
	} {
		var start []byte
		if tc.start != "" {
			start = []byte(tc.start)
		}
		results, err := broadcastScan(cl, "idx", start, nil, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(tc.want) {
			t.Fatalf("from %q limit %d: got %d entries, want %d", tc.start, tc.limit, len(results), len(tc.want))
		}
		for i, w := range tc.want {
			if string(results[i].Key) != w {
				t.Errorf("from %q limit %d: result[%d] = %q, want %q", tc.start, tc.limit, i, results[i].Key, w)
			}
		}
	}
}

// TestBroadcastScanAfterMergeNoDuplicates merges two regions behind the
// client's warm partition map: the merged region answers for two pieces of
// the ToAll spec, and without the ownership rule both would read the same
// whole region. Every key must come back exactly once.
func TestBroadcastScanAfterMergeNoDuplicates(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}
	// Warm the partition map, then merge the lower two regions behind it.
	if _, err := broadcastScan(cl, "idx", nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	regions, err := c.Master.RegionsOf("idx")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.MergeRegions(regions[0].ID, regions[1].ID); err != nil {
		t.Fatal(err)
	}

	results, err := broadcastScan(cl, "idx", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, res := range results {
		seen[string(res.Key)]++
	}
	for _, cell := range cells {
		switch n := seen[string(cell.Key)]; n {
		case 1:
		case 0:
			t.Errorf("key %q missing after merge", cell.Key)
		default:
			t.Errorf("key %q returned %d times after merge", cell.Key, n)
		}
	}
	if len(results) != len(cells) {
		t.Errorf("got %d entries, want %d", len(results), len(cells))
	}
}

// TestRawScanParallelMatchesSerial checks a ByKey MultiScan against the
// serial (fan-out 1) execution for a range+limit query: identical results,
// first-limit-in-key-order semantics preserved.
func TestRawScanParallelMatchesSerial(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k08", "k16", "k24")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	if err := cl.MultiApply("idx", multiApplyCells(30, 100)); err != nil {
		t.Fatal(err)
	}

	serial := NewClient(c, "serial")
	serial.SetFanOut(1)
	for _, tc := range []struct {
		start, end string
		limit      int
	}{
		{"", "", 0},
		{"", "", 7},
		{"k05", "k27", 0},
		{"k05", "k27", 9},
		{"k12", "k14", 2},
	} {
		var start, end []byte
		if tc.start != "" {
			start = []byte(tc.start)
		}
		if tc.end != "" {
			end = []byte(tc.end)
		}
		want, err := rawScan(serial, "idx", start, end, kv.MaxTimestamp, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rawScan(cl, "idx", start, end, kv.MaxTimestamp, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("[%q,%q) limit %d: %d entries, want %d", tc.start, tc.end, tc.limit, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) {
				t.Errorf("[%q,%q) limit %d: result[%d] = %q, want %q", tc.start, tc.end, tc.limit, i, got[i].Key, want[i].Key)
			}
		}
	}
}
