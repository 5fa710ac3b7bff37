package simnet

import (
	"errors"
	"testing"
	"time"
)

func TestCallExecutesAndChargesLatency(t *testing.T) {
	n := New(Config{RTT: 100 * time.Microsecond})
	var slept time.Duration
	n.sleep = func(d time.Duration) { slept += d }
	ran := false
	err := n.Call("client", "server1", func() error { ran = true; return nil })
	if err != nil || !ran {
		t.Fatalf("Call failed: %v ran=%v", err, ran)
	}
	if slept != 100*time.Microsecond {
		t.Errorf("slept %v, want full RTT", slept)
	}
	if n.Calls() != 1 {
		t.Errorf("Calls = %d", n.Calls())
	}
}

func TestLocalCallFree(t *testing.T) {
	n := New(Config{RTT: time.Second})
	n.sleep = func(time.Duration) { t.Error("local call slept") }
	if err := n.Call("s1", "s1", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestCallPropagatesError(t *testing.T) {
	n := New(Config{})
	want := errors.New("boom")
	if err := n.Call("a", "b", func() error { return want }); !errors.Is(err, want) {
		t.Errorf("got %v", err)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := New(Config{})
	n.Partition("a", "b")
	ran := false
	if err := n.Call("a", "b", func() error { ran = true; return nil }); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partitioned call: %v", err)
	}
	if ran {
		t.Error("fn ran across a partition")
	}
	// Symmetric.
	if err := n.Call("b", "a", func() error { return nil }); !errors.Is(err, ErrPartitioned) {
		t.Errorf("reverse partitioned call: %v", err)
	}
	// Unrelated pairs unaffected.
	if err := n.Call("a", "c", func() error { return nil }); err != nil {
		t.Errorf("unrelated call: %v", err)
	}
	n.Heal("b", "a")
	if err := n.Call("a", "b", func() error { return nil }); err != nil {
		t.Errorf("healed call: %v", err)
	}
	n.Partition("a", "b")
	n.Partition("a", "c")
	n.HealAll()
	if err := n.Call("a", "b", func() error { return nil }); err != nil {
		t.Errorf("after HealAll: %v", err)
	}
	if err := n.Call("a", "c", func() error { return nil }); err != nil {
		t.Errorf("after HealAll: %v", err)
	}
}
