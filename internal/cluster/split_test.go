package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/vfs"
)

func TestSplitRegionBasic(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 60; i++ {
		row := []byte(fmt.Sprintf("row%03d", i))
		if _, err := cl.Put("t", row, map[string][]byte{"v": []byte(fmt.Sprint(i)), "w": []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	regions, _ := c.Master.RegionsOf("t")
	if len(regions) != 1 {
		t.Fatalf("regions = %d", len(regions))
	}
	if err := c.Master.SplitRegion(regions[0].ID, []byte("row030")); err != nil {
		t.Fatal(err)
	}
	regions, _ = c.Master.RegionsOf("t")
	if len(regions) != 2 {
		t.Fatalf("regions after split = %d", len(regions))
	}
	if string(regions[0].End) != "row030" || string(regions[1].Start) != "row030" {
		t.Errorf("split bounds wrong: %v", regions)
	}

	// Every row readable, multi-column intact, through the stale cache.
	for i := 0; i < 60; i++ {
		row := []byte(fmt.Sprintf("row%03d", i))
		cols, err := cl.GetRow("t", row)
		if err != nil || len(cols) != 2 || string(cols["v"]) != fmt.Sprint(i) {
			t.Fatalf("row %s after split = %v err=%v", row, cols, err)
		}
	}
	// Scans stitch across the new boundary in order.
	rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if err != nil || len(rows) != 60 {
		t.Fatalf("scan = %d rows err=%v", len(rows), err)
	}
	// Writes to both children work.
	if _, err := cl.Put("t", []byte("row010"), map[string][]byte{"v": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("t", []byte("row050"), map[string][]byte{"v": []byte("new")}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRegionErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", splits("m"))
	regions, _ := c.Master.RegionsOf("t")
	if err := c.Master.SplitRegion("ghost", []byte("x")); err == nil {
		t.Error("split of unknown region succeeded")
	}
	// Split key outside the region.
	if err := c.Master.SplitRegion(regions[0].ID, []byte("z")); err == nil {
		t.Error("out-of-range split key accepted")
	}
	// Split key equal to the region start.
	if err := c.Master.SplitRegion(regions[1].ID, []byte("m")); err == nil {
		t.Error("split at region start accepted")
	}
}

func TestSplitPreservesTimestampsAndTombstones(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")
	ts1, _ := cl.Put("t", []byte("a"), map[string][]byte{"v": []byte("1")})
	cl.Put("t", []byte("b"), map[string][]byte{"v": []byte("1")})
	cl.Delete("t", []byte("b"), nil)
	regions, _ := c.Master.RegionsOf("t")
	if err := c.Master.SplitRegion(regions[0].ID, []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, ts, ok, err := cl.Get("t", []byte("a"), "v")
	if err != nil || !ok || string(v) != "1" || ts != ts1 {
		t.Errorf("Get(a) = %q ts=%d (want %d) ok=%v err=%v", v, ts, ts1, ok, err)
	}
	if _, _, ok, _ := cl.Get("t", []byte("b"), "v"); ok {
		t.Error("deleted row resurrected by split")
	}
}

// TestSplitChildrenInheritHorizon: a region compacted before a split hands
// its GC horizon to both children, so a child refuses every read below the
// parent's horizon and answers exactly at and above it, also as a row read
// and a scan.
func TestSplitChildrenInheritHorizon(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	put := func(row, v string) kv.Timestamp {
		t.Helper()
		ts, err := cl.Put("t", []byte(row), map[string][]byte{"v": []byte(v)})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	regions, _ := c.Master.RegionsOf("t")
	parent, err := c.Server(regions[0].Server).region(regions[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := put("a", "a1")
	if err := parent.store.Flush(); err != nil {
		t.Fatal(err)
	}
	ts2 := put("a", "a2")
	ts3 := put("z", "z1")
	if err := parent.store.Flush(); err != nil {
		t.Fatal(err)
	}
	ts4 := put("a", "a3") // in the memtable: newer than the horizon
	if err := parent.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if h := parent.store.Horizon(); h != ts3 {
		t.Fatalf("parent horizon = %d, want %d", h, ts3)
	}
	if err := c.Master.SplitRegion(regions[0].ID, []byte("m")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row  string
		ts   kv.Timestamp
		want string // "" = refused
	}{
		{"a", ts1, ""}, {"a", ts2, ""}, {"a", ts3, "a2"}, {"a", ts4, "a3"},
		{"z", ts3 - 1, ""}, {"z", ts3, "z1"}, {"z", kv.MaxTimestamp, "z1"},
	} {
		v, _, ok, err := cl.GetAsOf("t", []byte(tc.row), "v", tc.ts)
		if tc.want == "" {
			if !errors.Is(err, lsm.ErrHistoryTrimmed) {
				t.Errorf("GetAsOf(%s@%d) = (%q, %v, %v), want ErrHistoryTrimmed", tc.row, tc.ts, v, ok, err)
			}
			if _, err := cl.GetRowAsOf("t", []byte(tc.row), tc.ts); !errors.Is(err, lsm.ErrHistoryTrimmed) {
				t.Errorf("GetRowAsOf(%s@%d): err = %v, want ErrHistoryTrimmed", tc.row, tc.ts, err)
			}
			continue
		}
		if err != nil || !ok || string(v) != tc.want {
			t.Errorf("GetAsOf(%s@%d) = (%q, %v, %v), want %q", tc.row, tc.ts, v, ok, err, tc.want)
		}
	}
	if _, err := cl.Scan("t", nil, nil, ts2, 0); !errors.Is(err, lsm.ErrHistoryTrimmed) {
		t.Errorf("Scan below the horizon: err = %v, want ErrHistoryTrimmed", err)
	}
	if rows, err := cl.Scan("t", nil, nil, ts3, 0); err != nil || len(rows) != 2 ||
		string(rows[0].Cols["v"]) != "a2" || string(rows[1].Cols["v"]) != "z1" {
		t.Errorf("Scan at the horizon = %+v, %v; want a=a2, z=z1", rows, err)
	}
}

// TestSplitRefusesCellOutsideTargets: a cell whose routing key lies in no
// child fails the split, which rolls back: the parent stays routed and
// served with the cell still in it.
func TestSplitRefusesCellOutsideTargets(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("t", splits("m")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	if _, err := cl.Put("t", []byte("b"), map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	regions, _ := c.Master.RegionsOf("t")
	lower := regions[0]
	// Row "x" routes to the upper region; written into the lower one, it
	// lies outside both children of a split of the lower region.
	stray := kv.BaseKey([]byte("x"), []byte("v"))
	srv := c.Server(lower.Server)
	if err := srv.Apply(lower.ID, []kv.Cell{{Key: stray, Value: []byte("s"), Ts: 1, Kind: kv.KindPut}}); err != nil {
		t.Fatal(err)
	}
	err := c.Master.SplitRegion(lower.ID, []byte("f"))
	if err == nil || !strings.Contains(err.Error(), lower.ID) || !strings.Contains(err.Error(), fmt.Sprintf("%q", stray)) {
		t.Fatalf("split with a cell outside every child: err = %v, want one naming %s and %q", err, lower.ID, stray)
	}
	after, _ := c.Master.RegionsOf("t")
	if len(after) != 2 || after[0].ID != lower.ID {
		t.Fatalf("regions after the failed split = %v, want the parent back", after)
	}
	if un := c.Master.Unserved(); len(un) != 0 {
		t.Fatalf("unserved regions after the rollback: %v", un)
	}
	res, err := c.Server(after[0].Server).MultiGet(lower.ID, [][]byte{stray}, kv.MaxTimestamp)
	if err != nil || !res[0].Found || string(res[0].Cell.Value) != "s" {
		t.Fatalf("stray cell after the rollback = %+v, %v; want it kept", res, err)
	}
	if v, _, ok, err := cl.Get("t", []byte("b"), "v"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(b) after the rollback = (%q, %v, %v)", v, ok, err)
	}
}

func TestSplitUnderConcurrentWrites(t *testing.T) {
	c := newTestCluster(t, 3)
	c.Master.CreateTable("t", nil)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := NewClient(c, fmt.Sprintf("w%d", w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				row := []byte(fmt.Sprintf("k%d-%05d", w, i))
				if _, err := cl.Put("t", row, map[string][]byte{"v": []byte("x")}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					if i < 10 {
						started.Done()
					}
					return
				}
				if i == 9 {
					started.Done() // 10 puts in: real data exists pre-split
				}
			}
		}(w)
	}
	started.Wait()
	regions, _ := c.Master.RegionsOf("t")
	if err := c.Master.SplitRegion(regions[0].ID, []byte("k2")); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// All written rows survive.
	cl := NewClient(c, "verify")
	rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if err != nil || len(rows) == 0 {
		t.Fatalf("scan after concurrent split = %d err=%v", len(rows), err)
	}
	for _, r := range rows {
		if string(r.Cols["v"]) != "x" {
			t.Fatalf("row %q corrupted: %v", r.Key, r.Cols)
		}
	}
}

func TestSplitRawTable(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateRawTable("idx", nil); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 20; i++ {
		key := kv.IndexKey([]byte(fmt.Sprintf("v%02d", i)), []byte("row"))
		if err := cl.MultiApply("idx", []kv.Cell{{Key: key, Ts: kv.Timestamp(i + 1), Kind: kv.KindPut}}); err != nil {
			t.Fatal(err)
		}
	}
	regions, _ := c.Master.RegionsOf("idx")
	splitAt := kv.IndexValuePrefix([]byte("v10"))
	if err := c.Master.SplitRegion(regions[0].ID, splitAt); err != nil {
		t.Fatal(err)
	}
	res, err := rawScan(cl, "idx", nil, nil, kv.MaxTimestamp, 0)
	if err != nil || len(res) != 20 {
		t.Fatalf("raw scan after split = %d err=%v", len(res), err)
	}
	regions, _ = c.Master.RegionsOf("idx")
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
}

func TestSplitFreesParentFiles(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")
	for i := 0; i < 20; i++ {
		cl.Put("t", []byte(fmt.Sprintf("r%02d", i)), map[string][]byte{"v": []byte("x")})
	}
	regions, _ := c.Master.RegionsOf("t")
	parentDir := regionDir(regions[0]) + "/"
	if err := c.Master.SplitRegion(regions[0].ID, []byte("r10")); err != nil {
		t.Fatal(err)
	}
	names, _ := c.FS.List(parentDir)
	if len(names) != 0 {
		t.Errorf("parent files not GCed: %v", names)
	}
}

func TestMergeRegions(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("m")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 40; i++ {
		row := []byte(fmt.Sprintf("%c%02d", 'a'+byte(i%26), i))
		if _, err := cl.Put("t", row, map[string][]byte{"v": []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	regions, _ := c.Master.RegionsOf("t")
	if len(regions) != 2 {
		t.Fatalf("regions = %d", len(regions))
	}
	if err := c.Master.MergeRegions(regions[0].ID, regions[1].ID); err != nil {
		t.Fatal(err)
	}
	regions, _ = c.Master.RegionsOf("t")
	if len(regions) != 1 || regions[0].Start != nil || regions[0].End != nil {
		t.Fatalf("merged regions = %v", regions)
	}
	rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if err != nil || len(rows) != 40 {
		t.Fatalf("scan after merge = %d err=%v", len(rows), err)
	}
	// Writes keep working on the child.
	if _, err := cl.Put("t", []byte("zzz"), map[string][]byte{"v": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	// Split-then-merge round trip.
	regions, _ = c.Master.RegionsOf("t")
	if err := c.Master.SplitRegion(regions[0].ID, []byte("m")); err != nil {
		t.Fatal(err)
	}
	regions, _ = c.Master.RegionsOf("t")
	if err := c.Master.MergeRegions(regions[0].ID, regions[1].ID); err != nil {
		t.Fatal(err)
	}
	rows, _ = cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if len(rows) != 41 {
		t.Fatalf("rows after split+merge = %d", len(rows))
	}
}

// TestTransitionRollsBackWhenTargetFails: a split or merge whose new region
// cannot take its data (every write to the new region's directory fails)
// returns an error and puts the source range back in service, with every
// row intact. Once the fault clears, the same operations go through.
func TestTransitionRollsBackWhenTargetFails(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	c := New(Config{Servers: 2, BaseFS: fault})
	t.Cleanup(func() { c.Close() })
	if err := c.Master.CreateTable("t", splits("m")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 40; i++ {
		row := []byte(fmt.Sprintf("%c%02d", 'a'+byte(i%26), i))
		if _, err := cl.Put("t", row, map[string][]byte{"v": []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, regions int) {
		t.Helper()
		if un := c.Master.Unserved(); len(un) != 0 {
			t.Fatalf("%s: unserved regions %v", stage, un)
		}
		if got, _ := c.Master.RegionsOf("t"); len(got) != regions {
			t.Fatalf("%s: %d regions, want %d", stage, len(got), regions)
		}
		rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
		if err != nil || len(rows) != 40 {
			t.Fatalf("%s: scan = %d rows, err %v", stage, len(rows), err)
		}
	}
	// Region IDs come from one per-table counter: CreateTable minted
	// t.r0000 and t.r0001, so the split's lower child is t.r0002 and the
	// merge's child, after the failed split's two, is t.r0004.
	regions, _ := c.Master.RegionsOf("t")
	fault.Arm(vfs.FaultConfig{Seed: 1, WriteErrProb: 1, PathSubstr: "/t.r0002/"})
	if err := c.Master.SplitRegion(regions[0].ID, []byte("f")); err == nil {
		t.Fatal("split into an unwritable region succeeded")
	}
	check("after failed split", 2)
	fault.Arm(vfs.FaultConfig{Seed: 1, WriteErrProb: 1, PathSubstr: "/t.r0004/"})
	if err := c.Master.MergeRegions(regions[0].ID, regions[1].ID); err == nil {
		t.Fatal("merge into an unwritable region succeeded")
	}
	check("after failed merge", 2)

	fault.Disarm()
	if err := c.Master.MergeRegions(regions[0].ID, regions[1].ID); err != nil {
		t.Fatal(err)
	}
	check("after merge", 1)
	regions, _ = c.Master.RegionsOf("t")
	if regions[0].ID != "t.r0005" {
		t.Errorf("merged child is %s, want t.r0005", regions[0].ID)
	}
	if err := c.Master.SplitRegion(regions[0].ID, []byte("m")); err != nil {
		t.Fatal(err)
	}
	check("after split", 2)
}

func TestMergeRegionsErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", splits("g", "p"))
	regions, _ := c.Master.RegionsOf("t")
	if err := c.Master.MergeRegions("ghost", regions[0].ID); err == nil {
		t.Error("merge of unknown region succeeded")
	}
	// Non-adjacent pair.
	if err := c.Master.MergeRegions(regions[0].ID, regions[2].ID); err == nil {
		t.Error("merge of non-adjacent regions succeeded")
	}
	// Reversed order is also non-adjacent by definition.
	if err := c.Master.MergeRegions(regions[1].ID, regions[0].ID); err == nil {
		t.Error("reversed merge succeeded")
	}
}

// TestMultiScanAcrossSplitAndMerge reads one MultiScan batch that spans
// regions while a split and a merge land under it. First deterministically:
// a split and a merge behind the client's warm partition map make the
// batch's first dispatch hit regions that are gone, so its pieces are
// placed again — clipped to both children of the split, and read once from
// the merged region — and every spec (ByKey, ByRow and ToAll; overlapping,
// limited and empty) must return exactly its cells in key order. Then
// concurrently: splits and merges of the middle regions race a stream of
// ByKey and ToAll batches, each of which must return exactly the model.
func TestMultiScanAcrossSplitAndMerge(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateRawTable("idx", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.CreateTable("t", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")
	cells := multiApplyCells(30, 100)
	if err := cl.MultiApply("idx", cells); err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		if _, err := cl.Put("t", cell.Key, map[string][]byte{"a": cell.Value, "b": cell.Value}); err != nil {
			t.Fatal(err)
		}
	}
	// want lists the keys k<lo>…k<hi-1>, at most limit of them, with each
	// key's column suffixes on the base table.
	want := func(lo, hi, limit int, cols ...string) []string {
		var out []string
		for i := lo; i < hi; i++ {
			key := fmt.Sprintf("k%02d", i)
			if cols == nil {
				out = append(out, key)
			}
			for _, col := range cols {
				out = append(out, string(kv.BaseKey([]byte(key), []byte(col))))
			}
		}
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}
	check := func(what string, got [][]lsm.ScanResult, want [][]string) {
		t.Helper()
		for i := range want {
			var keys []string
			for _, res := range got[i] {
				keys = append(keys, string(res.Key))
			}
			if fmt.Sprint(keys) != fmt.Sprint(want[i]) {
				t.Errorf("%s spec %d:\n got %v\nwant %v", what, i, keys, want[i])
			}
		}
	}
	k := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }

	for _, limit := range []int{0, 3} {
		// Warm the map, then split a low region and merge the top two
		// behind it.
		for _, table := range []string{"idx", "t"} {
			if _, err := cl.MultiScan(table, []ScanSpec{{}}, kv.MaxTimestamp, 0); err != nil {
				t.Fatal(err)
			}
			ri, _ := c.Master.Locate(table, k(5+limit))
			if err := c.Master.SplitRegion(ri.ID, k(5+limit)); err != nil {
				t.Fatal(err)
			}
			regions, _ := c.Master.RegionsOf(table)
			if err := c.Master.MergeRegions(regions[len(regions)-2].ID, regions[len(regions)-1].ID); err != nil {
				t.Fatal(err)
			}
		}
		got, err := cl.MultiScan("idx", []ScanSpec{
			{},
			{Start: k(3), End: k(12)},
			{Start: k(8), End: k(25)},
			{Start: k(7), End: k(7)},
			{Start: k(18), Route: ToAll},
		}, kv.MaxTimestamp, limit)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("idx limit ", limit), got, [][]string{
			want(0, 30, limit), want(3, 12, limit), want(8, 25, limit), nil, want(18, 30, limit),
		})
		got, err = cl.MultiScan("t", []ScanSpec{
			RowRangeSpec(nil, nil),
			RowRangeSpec(k(4), k(21)),
			RowSpec(k(13)),
			RowSpec(k(2)),
			RowSpec([]byte("absent")),
		}, kv.MaxTimestamp, limit)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("t limit ", limit), got, [][]string{
			want(0, 30, limit, "a", "b"), want(4, 21, limit, "a", "b"), want(13, 14, limit, "a", "b"), want(2, 3, limit, "a", "b"), nil,
		})
	}

	// Concurrently: one goroutine splits the region holding k15 and merges
	// it back, over and over, while batches read across it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ri, err := c.Master.Locate("idx", k(15))
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.Master.SplitRegion(ri.ID, k(15)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond) // a map that never settles exhausts any retry budget
			lower, _ := c.Master.Locate("idx", k(14))
			upper, _ := c.Master.Locate("idx", k(15))
			if err := c.Master.MergeRegions(lower.ID, upper.ID); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for batch := 0; batch < 200 && !t.Failed(); batch++ {
		got, err := cl.MultiScan("idx", []ScanSpec{{}, {Start: k(11), End: k(19)}, {Start: k(14), End: k(16)}, {Route: ToAll}}, kv.MaxTimestamp, 0)
		if err != nil {
			t.Fatal(err)
		}
		check("during churn", got, [][]string{want(0, 30, 0), want(11, 19, 0), want(14, 16, 0), want(0, 30, 0)})
	}
}

// TestWritesAcrossSplitAndMerge runs every write — Put, Delete of named
// columns and of a whole row, and MultiApply of base, local-index and
// raw-index cells — while one region of each table splits and merges back
// over and over, then reads every acknowledged write back.
func TestWritesAcrossSplitAndMerge(t *testing.T) {
	c := newTestCluster(t, 3)
	// The split key r05\x00 lies between row r05 and its store keys, so a
	// base cell routed by its store key lands in the wrong region.
	if err := c.Master.CreateTable("t", splits("r05\x00", "r30")); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.CreateRawTable("idx", splits("k10", "k30")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, tr := range []struct{ table, at, below string }{{"t", "r15", "r14"}, {"idx", "k15", "k14"}} {
				select {
				case <-stop:
					return
				default:
				}
				ri, err := c.Master.Locate(tr.table, []byte(tr.at))
				if err == nil {
					err = c.Master.SplitRegion(ri.ID, []byte(tr.at))
				}
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond) // a map that never settles exhausts any retry budget
				lower, _ := c.Master.Locate(tr.table, []byte(tr.below))
				upper, _ := c.Master.Locate(tr.table, []byte(tr.at))
				if err := c.Master.MergeRegions(lower.ID, upper.ID); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const base = kv.Timestamp(1 << 40) // above every server timestamp
	rows := map[string]map[string][]byte{}
	var local, raw []kv.Cell
	for i := 0; i < 200 && !t.Failed(); i++ {
		row := fmt.Sprintf("r%02d", i%40)
		v := func(col string) []byte { return []byte(fmt.Sprintf("%s-%d", col, i)) }
		if _, err := cl.Put("t", []byte(row), map[string][]byte{"a": v("a"), "b": v("b")}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Delete("t", []byte(row), []string{"b"}); err != nil {
			t.Fatal(err)
		}
		gone := row + "-gone"
		if _, err := cl.Put("t", []byte(gone), map[string][]byte{"a": v("a"), "b": v("b")}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Delete("t", []byte(gone), nil); err != nil {
			t.Fatal(err)
		}
		rows[gone] = nil
		// One batch mixes a base cell with a local-index entry of the row.
		li := kv.Cell{Key: kv.LocalIndexKey("t.li", v("li"), []byte(row)), Ts: base + kv.Timestamp(i), Kind: kv.KindPut}
		if err := cl.MultiApply("t", []kv.Cell{
			{Key: kv.BaseKey([]byte(row), []byte("x")), Value: v("x"), Ts: base + kv.Timestamp(i), Kind: kv.KindPut},
			li,
		}); err != nil {
			t.Fatal(err)
		}
		rows[row] = map[string][]byte{"a": v("a"), "x": v("x")}
		local = append(local, li)
		cells := []kv.Cell{
			{Key: []byte(fmt.Sprintf("k%02d-%03d", i%40, i)), Value: v("k"), Ts: base + kv.Timestamp(i), Kind: kv.KindPut},
			{Key: []byte(fmt.Sprintf("k%02d-%03d", (i+17)%40, i)), Value: v("k"), Ts: base + kv.Timestamp(i), Kind: kv.KindPut},
		}
		if err := cl.MultiApply("idx", cells); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, cells...)
	}
	close(stop)
	wg.Wait()

	for row, want := range rows {
		got, err := cl.GetRow("t", []byte(row))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Errorf("row %s = %q, want %q", row, got, want)
		}
	}
	// A local-index entry must live in its row's region.
	for _, li := range local {
		row, err := kv.LocalIndexRow(li.Key)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := c.Master.Locate("t", row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Server(ri.Server).MultiGet(ri.ID, [][]byte{li.Key}, kv.MaxTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Found || got[0].Cell.Ts != li.Ts {
			t.Errorf("local-index entry %q not in its row's region %s", li.Key, ri.ID)
		}
	}
	specs := make([]GetSpec, len(raw))
	for i, cell := range raw {
		specs[i] = GetSpec{Key: cell.Key}
	}
	got, err := cl.MultiGet("idx", specs, kv.MaxTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range raw {
		if !got[i].Found || string(got[i].Cell.Value) != string(cell.Value) {
			t.Errorf("raw cell %q lost", cell.Key)
		}
	}
}
