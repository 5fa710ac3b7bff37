package core

import (
	"fmt"
	"testing"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

func (e *env) createLocalIndex(t testing.TB, cols ...string) IndexDef {
	t.Helper()
	def := IndexDef{Table: e.tbl, Columns: cols, Local: true}
	if err := e.m.CreateIndex(def, nil); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestLocalIndexLifecycle(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createLocalIndex(t, "title")

	// Rows land in both regions (split at item500).
	e.put(t, "item001", "title", "matrix")
	e.put(t, "item800", "title", "matrix")
	e.put(t, "item300", "title", "inception")

	rows := e.lookupRows(t, []string{"title"}, "matrix")
	if len(rows) != 2 || rows[0] != "item001" || rows[1] != "item800" {
		t.Fatalf("matrix rows = %v", rows)
	}
	// Update moves the entry synchronously (local maintenance is causal).
	e.put(t, "item001", "title", "avatar")
	if rows := e.lookupRows(t, []string{"title"}, "matrix"); len(rows) != 1 || rows[0] != "item800" {
		t.Fatalf("matrix rows after update = %v", rows)
	}
	if rows := e.lookupRows(t, []string{"title"}, "avatar"); len(rows) != 1 {
		t.Fatalf("avatar rows = %v", rows)
	}
	// Delete removes the entry.
	if _, err := e.cl.Delete(e.tbl, []byte("item800"), nil); err != nil {
		t.Fatal(err)
	}
	if rows := e.lookupRows(t, []string{"title"}, "matrix"); len(rows) != 0 {
		t.Fatalf("matrix rows after delete = %v", rows)
	}
}

func TestLocalIndexDoesNotPolluteScans(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createLocalIndex(t, "title")
	for i := 0; i < 10; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", "v")
	}
	// Row scans must return exactly the base rows despite local-index
	// entries living in the same stores.
	rows, err := e.cl.Scan(e.tbl, nil, nil, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("scan returned %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if len(r.Cols) != 1 || string(r.Cols["title"]) != "v" {
			t.Fatalf("scan row %q has cols %v", r.Key, r.Cols)
		}
	}
	// GetRow likewise.
	cols, err := e.cl.GetRow(e.tbl, []byte("item003"))
	if err != nil || len(cols) != 1 {
		t.Fatalf("GetRow = %v err=%v", cols, err)
	}
}

func TestLocalIndexRange(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createLocalIndex(t, "price")
	for i := 0; i < 40; i++ {
		// Spread across both regions via alternating row prefixes.
		row := fmt.Sprintf("item%03d", i*25)
		e.put(t, row, "price", fmt.Sprintf("%04d", i*10))
	}
	hits, err := e.m.RangeByIndex(e.cl, e.tbl, []string{"price"}, []byte("0100"), []byte("0200"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 11 {
		t.Fatalf("range hits = %d, want 11", len(hits))
	}
	// Results arrive in value order even though regions are scanned
	// independently.
	hits, _ = e.m.RangeByIndex(e.cl, e.tbl, []string{"price"}, nil, nil, 0)
	if len(hits) != 40 {
		t.Fatalf("full range = %d", len(hits))
	}
	// Limit.
	hits, _ = e.m.RangeByIndex(e.cl, e.tbl, []string{"price"}, []byte("0000"), nil, 5)
	if len(hits) != 5 {
		t.Fatalf("limited range = %d", len(hits))
	}
}

func TestLocalIndexBackfill(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	for i := 0; i < 20; i++ {
		e.put(t, fmt.Sprintf("item%03d", i*50), "title", fmt.Sprintf("b%d", i%2))
	}
	e.createLocalIndex(t, "title")
	for v := 0; v < 2; v++ {
		rows := e.lookupRows(t, []string{"title"}, fmt.Sprintf("b%d", v))
		if len(rows) != 10 {
			t.Fatalf("b%d rows = %d, want 10", v, len(rows))
		}
	}
}

func TestLocalIndexCrashRecovery(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createLocalIndex(t, "title")
	for i := 0; i < 30; i++ {
		e.put(t, fmt.Sprintf("item%03d", i*30), "title", "persist")
	}
	// Local entries share the region's WAL, so an unflushed crash must
	// recover them along with the base data.
	ri, _ := e.c.Master.Locate(e.tbl, []byte("item000"))
	if err := e.c.Master.CrashServer(ri.Server); err != nil {
		t.Fatal(err)
	}
	if !e.m.WaitForConvergence(10 * time.Second) {
		t.Fatal("no convergence after crash")
	}
	rows := e.lookupRows(t, []string{"title"}, "persist")
	if len(rows) != 30 {
		t.Fatalf("rows after crash = %d, want 30", len(rows))
	}
}

func TestLocalIndexSessionReads(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createLocalIndex(t, "title")
	s := e.m.NewSession(e.cl)
	defer s.End()
	if _, err := s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	// Local indexes are causal: the session read sees the write without
	// private-table machinery.
	hits, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("v"))
	if err != nil || len(hits) != 1 {
		t.Fatalf("session local read = %v err=%v", hits, err)
	}
	rh, err := s.RangeByIndex(e.tbl, []string{"title"}, []byte("a"), []byte("z"), 0)
	if err != nil || len(rh) != 1 {
		t.Fatalf("session local range = %v err=%v", rh, err)
	}
}

func TestLocalIndexIOCounts(t *testing.T) {
	// A local index update costs zero network hops: the index write routes
	// to the same region (and server) as the base put.
	e := newEnv(t, 3, ManagerOptions{})
	e.createLocalIndex(t, "title")
	e.put(t, "item100", "title", "before")

	before := e.m.Counters.Snapshot()
	e.put(t, "item100", "title", "after")
	d := e.m.Counters.Snapshot().Sub(before)
	if d.BasePut != 1 || d.BaseRead != 1 || d.IndexPut != 1 || d.IndexDel != 1 {
		t.Errorf("local update costs = %+v", d)
	}

	// Verify the index write really went to the base row's own region: the
	// local entry must be in the store of the region holding item100.
	ri, _ := e.c.Master.Locate(e.tbl, []byte("item100"))
	def := IndexDef{Table: e.tbl, Columns: []string{"title"}, Local: true}
	lo, hi := kv.LocalIndexValueRange(def.Name(), []byte("after"), []byte("after"))
	res, err := e.c.Server(ri.Server).MultiScan(ri.ID, []lsm.ScanRange{{Start: lo, End: hi}}, kv.MaxTimestamp, 0)
	if err != nil || len(res[0]) != 1 {
		t.Fatalf("local entry not in the row's region: %v err=%v", res, err)
	}
}

// TestLocalVsGlobalLookupFanout is §3.1's query side, counted in simnet
// calls: an exact-match lookup on a local index broadcasts to every region
// of the base table, so its cost grows with the region count, while a global
// index answers from the one index region holding the value, at the same
// cost for any base-table split. The update side is TestLocalIndexIOCounts.
func TestLocalVsGlobalLookupFanout(t *testing.T) {
	const rows = 64
	lookupCalls := func(regions int, local bool) int64 {
		c := cluster.New(cluster.Config{Servers: 8})
		defer c.Close()
		m := NewManager(c, ManagerOptions{})
		var splits [][]byte
		for i := 1; i < regions; i++ {
			splits = append(splits, []byte(fmt.Sprintf("item%03d", i*rows/regions)))
		}
		if err := c.Master.CreateTable("items", splits); err != nil {
			t.Fatal(err)
		}
		def := IndexDef{Table: "items", Columns: []string{"title"}, Scheme: SyncFull, Local: local}
		if err := m.CreateIndex(def, nil); err != nil {
			t.Fatal(err)
		}
		cl := cluster.NewClient(c, "testclient")
		for i := 0; i < rows; i++ {
			row := []byte(fmt.Sprintf("item%03d", i))
			if _, err := cl.Put("items", row, map[string][]byte{"title": []byte(fmt.Sprintf("t%03d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		lookup := func() {
			hits, err := m.GetByIndex(cl, "items", []string{"title"}, []byte("t042"))
			if err != nil || len(hits) != 1 || string(hits[0].Row) != "item042" {
				t.Fatalf("lookup t042 = %v, err %v", hits, err)
			}
		}
		lookup() // warm the client's region cache
		before := c.Net.Calls()
		lookup()
		return c.Net.Calls() - before
	}

	for _, regions := range []int{2, 4, 8} {
		if got := lookupCalls(regions, true); got != int64(regions) {
			t.Errorf("local lookup over %d regions: %d simnet calls, want one per region", regions, got)
		}
		if got := lookupCalls(regions, false); got != 1 {
			t.Errorf("global lookup over %d base regions: %d simnet calls, want 1", regions, got)
		}
	}
}

func TestLocalAndGlobalIndexCoexist(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createLocalIndex(t, "title")
	e.createIndex(t, SyncFull, "price")

	if _, err := e.cl.Put(e.tbl, []byte("item001"), map[string][]byte{
		"title": []byte("t"), "price": []byte("9"),
	}); err != nil {
		t.Fatal(err)
	}
	if rows := e.lookupRows(t, []string{"title"}, "t"); len(rows) != 1 {
		t.Fatalf("local rows = %v", rows)
	}
	if rows := e.lookupRows(t, []string{"price"}, "9"); len(rows) != 1 {
		t.Fatalf("global rows = %v", rows)
	}
}
