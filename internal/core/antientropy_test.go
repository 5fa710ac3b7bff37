package core

import (
	"fmt"
	"testing"

	"diffindex/internal/kv"
)

// loadRows writes n rows with a "color" column through the normal put path
// (index maintenance runs), spreading rows across both regions of the test
// table.
func loadRows(t testing.TB, e *env, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("item%03d", i*25), "color", fmt.Sprintf("c%d", i%5))
	}
}

// verifyOne sweeps the test table, which carries exactly one global index,
// and returns that index's report.
func verifyOne(t testing.TB, e *env) IndexVerifyReport {
	t.Helper()
	reports, err := e.m.VerifyIndexes(e.cl, e.tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	return reports[0]
}

// clean reports whether a sweep saw no candidate pair at all: nothing
// confirmed and nothing that re-verified clean either.
func clean(rep IndexVerifyReport) bool { return rep.Healthy() && rep.Transient == 0 }

func TestAntiEntropyCleanIndex(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncFull, "color")
	loadRows(t, e, 40)

	if rep := verifyOne(t, e); !clean(rep) || rep.Repaired != 0 {
		t.Fatalf("clean index reported divergence: %s", rep)
	}
}

func TestAntiEntropyRepairsMissingEntry(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncFull, "color")
	loadRows(t, e, 40)

	// Simulate a LOST index insert: write a base row through the raw apply
	// path, which bypasses the coprocessor — the base has the row, the index
	// never saw it, and no tombstone exists. This is exactly the state a
	// dropped queue entry or buggy maintenance path leaves behind.
	row := []byte("item123")
	if err := e.cl.MultiApply(e.tbl, []kv.Cell{{
		Key: kv.BaseKey(row, []byte("color")), Value: []byte("lost"), Ts: 999999, Kind: kv.KindPut,
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.lookupRows(t, []string{"color"}, "lost"); len(got) != 0 {
		t.Fatalf("index unexpectedly already has the entry: %v", got)
	}

	if rep := verifyOne(t, e); rep.Missing != 1 || rep.Stale != 0 || rep.Transient != 0 || rep.Repaired != 1 {
		t.Fatalf("report: %s", rep)
	}

	// The repaired entry now serves index reads.
	if got := e.lookupRows(t, []string{"color"}, "lost"); len(got) != 1 || got[0] != "item123" {
		t.Fatalf("post-repair lookup = %v", got)
	}
	// And the two sides converge: a second sweep is clean.
	if rep2 := verifyOne(t, e); !clean(rep2) {
		t.Fatalf("residual divergence after repair: %s", rep2)
	}
}

func TestAntiEntropyRepairsStaleEntry(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := e.createIndex(t, SyncFull, "color")
	loadRows(t, e, 40)

	// Simulate a PHANTOM entry: an index key no base row justifies, injected
	// straight into the index table (the state a lost delete or misdirected
	// insert leaves behind). Sync-full reads trust the index, so the phantom
	// is served to queries until anti-entropy removes it.
	phantomKey := kv.IndexKey([]byte("phantom"), []byte("item042"))
	if err := e.cl.MultiApply(def.Name(), []kv.Cell{{
		Key: phantomKey, Ts: 777777, Kind: kv.KindPut,
	}}); err != nil {
		t.Fatal(err)
	}
	if got := e.lookupRows(t, []string{"color"}, "phantom"); len(got) != 1 {
		t.Fatalf("phantom not visible pre-repair: %v", got)
	}

	if rep := verifyOne(t, e); rep.Stale != 1 || rep.Missing != 0 || rep.Transient != 0 || rep.Repaired != 1 {
		t.Fatalf("report: %s", rep)
	}
	if got := e.lookupRows(t, []string{"color"}, "phantom"); len(got) != 0 {
		t.Fatalf("phantom still served after repair: %v", got)
	}
	if rep2 := verifyOne(t, e); !clean(rep2) {
		t.Fatalf("residual divergence after repair: %s", rep2)
	}
}

func TestAntiEntropyCompositeIndex(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncFull, "a", "b")
	for i := 0; i < 20; i++ {
		row := fmt.Sprintf("item%03d", i*50)
		if _, err := e.cl.Put(e.tbl, []byte(row), map[string][]byte{
			"a": []byte(fmt.Sprintf("a%d", i%3)),
			"b": []byte(fmt.Sprintf("b%d", i%4)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Lost composite insert: both columns through the raw path at one ts.
	row := []byte("item777")
	if err := e.cl.MultiApply(e.tbl, []kv.Cell{
		{Key: kv.BaseKey(row, []byte("a")), Value: []byte("ax"), Ts: 500000, Kind: kv.KindPut},
		{Key: kv.BaseKey(row, []byte("b")), Value: []byte("bx"), Ts: 500000, Kind: kv.KindPut},
	}); err != nil {
		t.Fatal(err)
	}

	if rep := verifyOne(t, e); rep.Missing != 1 || rep.Stale != 0 || rep.Repaired != 1 {
		t.Fatalf("report: %s", rep)
	}
	want := kv.EncodeComposite([]byte("ax"), []byte("bx"))
	if got := e.lookupRows(t, []string{"a", "b"}, string(want)); len(got) != 1 || got[0] != "item777" {
		t.Fatalf("post-repair composite lookup = %v", got)
	}
}

func TestAntiEntropyAsyncIndexAfterConvergence(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, AsyncSimple, "color")
	loadRows(t, e, 40)
	if !e.m.WaitForConvergence(5e9) {
		t.Fatal("async index did not converge")
	}
	if rep := verifyOne(t, e); !clean(rep) || rep.Repaired != 0 {
		t.Fatalf("converged async index reported divergence: %s", rep)
	}
}

func TestAntiEntropySkipsLocalIndexes(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := IndexDef{Table: e.tbl, Columns: []string{"color"}, Scheme: SyncFull, Local: true}
	if err := e.m.CreateIndex(def, nil); err != nil {
		t.Fatal(err)
	}
	loadRows(t, e, 10)
	reports, err := e.m.VerifyIndexes(e.cl, e.tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("local index swept: %v", reports)
	}
}

// The sweep is one enumerate-and-diff pass: each base region and each index
// region is enumerated by exactly one RPC, and everything else the sweep
// sends is the reconcile engine's. On a sync-insert index where every row
// left a stale entry behind, no grouping of rows can find a part of either
// side that agrees, so no scan is saved by comparing summaries first.
func TestVerifyEnumeratesEachSideOnce(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := IndexDef{Table: e.tbl, Columns: []string{"title"}, Scheme: SyncInsert}
	if err := e.m.CreateIndex(def, [][]byte{kv.IndexValuePrefix([]byte("m"))}); err != nil {
		t.Fatal(err)
	}
	const rows = 500 // under reconcileChunk: the engine runs one wave
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("item%03d", 2*i) // both base regions
		old, cur := "a", "b"
		if i%2 == 1 {
			old, cur = "n", "o" // the other index region
		}
		e.put(t, row, "title", fmt.Sprintf("%s%03d", old, i))
		e.put(t, row, "title", fmt.Sprintf("%s%03d", cur, i))
	}
	base, err := e.c.Master.RegionsOf(e.tbl)
	if err != nil {
		t.Fatal(err)
	}
	index, err := e.c.Master.RegionsOf(def.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || len(index) != 2 {
		t.Fatalf("regions: %d base, %d index; want 2 and 2", len(base), len(index))
	}
	regions := int64(len(base) + len(index))

	// The stale wave's candidates carry the timestamps the enumeration read,
	// so the engine makes no index lookup: one MultiGet RPC per base region
	// for the double-check and one MultiApply RPC per index region for the
	// deletes, as every region holds candidates.
	before := e.c.Net.Calls()
	rep := verifyOne(t, e)
	if rep.Stale != rows || rep.Missing != 0 || rep.Repaired != rows {
		t.Fatalf("report: %s", rep)
	}
	enumeration, reconcile := regions, regions
	if got := e.c.Net.Calls() - before; got != enumeration+reconcile {
		t.Errorf("sweep with %d stale entries: %d simnet calls, want %d enumeration + %d reconcile",
			rows, got, enumeration, reconcile)
	}

	// Once repaired, the engine has nothing to check: the sweep is the two
	// enumerations alone.
	before = e.c.Net.Calls()
	if rep := verifyOne(t, e); !clean(rep) {
		t.Fatalf("second sweep = %s; want clean", rep)
	}
	if got := e.c.Net.Calls() - before; got != regions {
		t.Errorf("clean sweep: %d simnet calls, want %d, one per region", got, regions)
	}
}
