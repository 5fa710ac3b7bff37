package diffindex

import (
	"fmt"
	"testing"
	"time"
)

func TestPublicAPIVerifySweep(t *testing.T) {
	db := openTestDB(t, 3)
	db.CreateTable("t", nil)
	if err := db.CreateIndex("t", []string{"kind"}, SyncInsert, nil); err != nil {
		t.Fatal(err)
	}
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

	// The repairs hold: a second sweep finds nothing.
	reps, err = cl.VerifyIndexes("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Healthy() {
		t.Errorf("second VerifyIndexes = %+v, want healthy", reps)
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
