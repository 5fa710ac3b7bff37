package core

import (
	"fmt"
	"testing"
	"time"
)

func TestSetSchemeSweepsWhenLeavingSyncInsert(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := e.createIndex(t, SyncInsert, "title")
	e.put(t, "item001", "title", "old")
	e.put(t, "item001", "title", "new") // stale old→item001 left behind

	if err := e.m.SetScheme(e.cl, e.tbl, []string{"title"}, AsyncSimple); err != nil {
		t.Fatal(err)
	}
	got, ok := e.m.catalog.Find(e.tbl, "title")
	if !ok || got.Scheme != AsyncSimple {
		t.Fatalf("scheme after switch = %v ok=%v", got.Scheme, ok)
	}
	// The stale entry must be gone even though async reads never repair.
	entries := e.rawIndexEntries(t, def)
	if len(entries) != 1 || entries[0] != "new→item001" {
		t.Errorf("entries after switch = %v", entries)
	}
	// Same-scheme switch is a no-op; missing index errors.
	if err := e.m.SetScheme(e.cl, e.tbl, []string{"title"}, AsyncSimple); err != nil {
		t.Errorf("no-op switch: %v", err)
	}
	if err := e.m.SetScheme(e.cl, e.tbl, []string{"ghost"}, SyncFull); err == nil {
		t.Error("switch of missing index succeeded")
	}
	// Updates now flow through the async path.
	e.put(t, "item001", "title", "newer")
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("no convergence after switch")
	}
	if rows := e.lookupRows(t, []string{"title"}, "newer"); len(rows) != 1 {
		t.Errorf("rows after async update = %v", rows)
	}
}

func TestAdvisorRecommendations(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, SyncInsert, "title")
	a := e.m.NewAdvisor()

	cases := []struct {
		req  Requirements
		want Scheme
	}{
		{Requirements{NeedConsistency: true, ReadLatencyCritical: true}, SyncFull},
		{Requirements{NeedConsistency: true, UpdateLatencyCritical: true}, SyncInsert},
		{Requirements{NeedReadYourWrites: true}, AsyncSession},
		{Requirements{}, AsyncSimple},
	}
	for _, c := range cases {
		rec := a.Recommend(e.tbl, []string{"title"}, c.req)
		if rec.Scheme != c.want {
			t.Errorf("Recommend(%+v) = %v, want %v (%s)", c.req, rec.Scheme, c.want, rec.Rationale)
		}
		if rec.Rationale == "" {
			t.Error("empty rationale")
		}
	}
}

func TestAdvisorObservesWorkloadRatio(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, SyncInsert, "title")
	a := e.m.NewAdvisor()

	// Write-heavy phase: many updates, few reads.
	for i := 0; i < 20; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("w%d", i))
	}
	e.lookupRows(t, []string{"title"}, "w0")
	u, r := a.Observed(e.tbl, "title")
	if u != 20 || r != 1 {
		t.Errorf("Observed = (%d, %d), want (20, 1)", u, r)
	}
	rec := a.Recommend(e.tbl, []string{"title"}, Requirements{NeedConsistency: true})
	if rec.Scheme != SyncInsert {
		t.Errorf("write-heavy consistent workload → %v, want sync-insert (%s)", rec.Scheme, rec.Rationale)
	}

	// Read-heavy phase tips the balance to sync-full.
	for i := 0; i < 40; i++ {
		e.lookupRows(t, []string{"title"}, fmt.Sprintf("w%d", i%20))
	}
	rec = a.Recommend(e.tbl, []string{"title"}, Requirements{NeedConsistency: true})
	if rec.Scheme != SyncFull {
		t.Errorf("read-heavy consistent workload → %v, want sync-full (%s)", rec.Scheme, rec.Rationale)
	}
	if rec.Updates == 0 || rec.Reads == 0 {
		t.Error("recommendation missing observed counts")
	}
}

func TestAdvisorApply(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, SyncInsert, "title")
	a := e.m.NewAdvisor()
	e.put(t, "item001", "title", "v1")
	e.put(t, "item001", "title", "v2") // stale entry under sync-insert

	rec, err := a.Apply(e.cl, e.tbl, []string{"title"}, Requirements{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Scheme != AsyncSimple {
		t.Fatalf("applied scheme %v", rec.Scheme)
	}
	got, _ := e.m.catalog.Find(e.tbl, "title")
	if got.Scheme != AsyncSimple {
		t.Error("scheme not applied to catalog")
	}
	// The switch swept out the stale sync-insert entry.
	def := IndexDef{Table: e.tbl, Columns: []string{"title"}, Scheme: AsyncSimple}
	if entries := e.rawIndexEntries(t, def); len(entries) != 1 {
		t.Errorf("entries after Apply = %v", entries)
	}
}
