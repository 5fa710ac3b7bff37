package diffindex

import (
	"fmt"
	"testing"
	"time"
)

func TestPublicAPIAdvisorAndVerifySweep(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	if err := db.CreateIndex("t", []string{"kind"}, SyncInsert, nil); err != nil {
		t.Fatal(err)
	}
	advisor := db.NewAdvisor()
	cl := db.NewClient("c")

	// Stale entries accumulate under sync-insert updates.
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 10; i++ {
			if _, err := cl.Put("t", []byte(fmt.Sprintf("r%02d", i)), Cols{
				"kind": []byte(fmt.Sprintf("g%d", gen)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reps, err := cl.VerifyIndexes("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Stale != 10 || reps[0].Repaired != 10 || reps[0].Missing != 0 {
		t.Errorf("VerifyIndexes = %+v, want 10 stale entries repaired", reps)
	}

	// The advisor saw the writes; with a read-heavy phase it flips.
	u, r := advisor.Observed("t", "kind")
	if u != 20 {
		t.Errorf("Observed updates = %d", u)
	}
	_ = r
	rec := advisor.Recommend("t", []string{"kind"}, Requirements{NeedConsistency: true, UpdateLatencyCritical: true})
	if rec.Scheme != SyncInsert || rec.Rationale == "" {
		t.Errorf("Recommend = %+v", rec)
	}
	rec, err = advisor.Apply(cl, "t", []string{"kind"}, Requirements{})
	if err != nil || rec.Scheme != AsyncSimple {
		t.Fatalf("Apply = %+v err=%v", rec, err)
	}
	// Updates now flow async; convergence still reaches the right state.
	if _, err := cl.Put("t", []byte("r00"), Cols{"kind": []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if !db.WaitForIndexes(5 * time.Second) {
		t.Fatal("no convergence after Apply")
	}
	hits, _ := cl.GetByIndex("t", []string{"kind"}, []byte("fresh"))
	if len(hits) != 1 {
		t.Errorf("fresh hits = %v", hits)
	}
	if err := cl.SetIndexScheme("t", []string{"kind"}, SyncFull); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIUnsafeDrainKnob(t *testing.T) {
	// Just exercise the wiring: with the knob on, flushes do not wait for
	// the AUQ.
	db := Open(Options{Servers: 2, UnsafeDisableDrainOnFlush: true})
	defer db.Close()
	db.CreateTable("t", nil)
	if err := db.CreateIndex("t", []string{"a"}, AsyncSimple, nil); err != nil {
		t.Fatal(err)
	}
	db.PartitionNetwork("rs1", "rs2")
	cl := db.NewClient("c")
	for i := 0; i < 10; i++ {
		cl.Put("t", []byte(fmt.Sprintf("r%d", i)), Cols{"a": []byte("v")})
	}
	done := make(chan error, 1)
	go func() { done <- db.FlushAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush blocked despite UnsafeDisableDrainOnFlush")
	}
	db.HealNetwork()
}
