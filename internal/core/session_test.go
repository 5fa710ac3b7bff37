package core

import (
	"fmt"
	"testing"
	"time"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
)

// blockAsync cuts every server↔server path so the APS cannot deliver index
// updates; client↔server paths stay up. This makes "the index is stale"
// deterministic for session tests.
func blockAsync(e *env) {
	ids := e.c.ServerIDs()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			e.c.Net.Partition(ids[i], ids[j])
		}
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")
	blockAsync(e)

	// §3.3's scenario: user 1 posts a review, then lists reviews.
	s1 := e.m.NewSession(e.cl)
	defer s1.End()
	if _, err := s1.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("matrix")}); err != nil {
		t.Fatal(err)
	}

	// The plain (non-session) read misses the write: the index is stale.
	// Note: the index entry for item001 may be server-local, in which case
	// even the stale path sees it; use a row whose index region is remote.
	hits, err := s1.GetByIndex(e.tbl, []string{"title"}, []byte("matrix"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || string(hits[0].Row) != "item001" {
		t.Fatalf("session read missed own write: %+v", hits)
	}

	// A different session (user 2) has no private state; it may or may not
	// see the write — session consistency makes no promise for it.
	s2 := e.m.NewSession(e.cl)
	defer s2.End()
	if _, err := s2.GetByIndex(e.tbl, []string{"title"}, []byte("matrix")); err != nil {
		t.Fatal(err)
	}

	// After healing and convergence the server index catches up and the
	// merged result still reports the row exactly once.
	e.c.Net.HealAll()
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("no convergence after heal")
	}
	hits, err = s1.GetByIndex(e.tbl, []string{"title"}, []byte("matrix"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("duplicate or missing hit after convergence: %+v", hits)
	}
}

func TestSessionSeesOwnUpdateNotStaleValue(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")

	// Converged initial state.
	s := e.m.NewSession(e.cl)
	defer s.End()
	if _, err := s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("old")}); err != nil {
		t.Fatal(err)
	}
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("no convergence")
	}

	// Update while the async path is blocked: the server index still holds
	// old→item001.
	blockAsync(e)
	if _, err := s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	// Session read of the OLD value must hide the superseded entry...
	hits, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("session saw its own superseded entry: %+v", hits)
	}
	// ...and the NEW value must be visible.
	hits, _ = s.GetByIndex(e.tbl, []string{"title"}, []byte("new"))
	if len(hits) != 1 {
		t.Fatalf("session missed its own update: %+v", hits)
	}
	e.c.Net.HealAll()
}

// heldIndexing is the table's observer with its write hook held back: the
// base write lands, the index is left as it was.
type heldIndexing struct{ *observer }

func (heldIndexing) PostMutate(cluster.RegionCtx, []byte, cluster.Mutation, kv.Timestamp) {}

// A session delete is one RPC: the markers come from the pre-image the
// delete itself read under the row lock, not from a read of its own.
func TestSessionDelete(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")
	s := e.m.NewSession(e.cl)
	defer s.End()

	s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("gone")})
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("no convergence")
	}
	// With the index maintenance held back the index keeps the entry, and
	// no APS call lands among the delete's.
	e.c.RegisterCoprocessor(e.tbl, heldIndexing{&observer{m: e.m}})
	before := e.c.Net.Calls()
	if _, err := s.Delete(e.tbl, []byte("item001"), nil); err != nil {
		t.Fatal(err)
	}
	if got := e.c.Net.Calls() - before; got != 1 {
		t.Errorf("Session.Delete made %d calls, want 1", got)
	}
	if rows := e.lookupRows(t, []string{"title"}, "gone"); len(rows) != 1 {
		t.Fatalf("plain read = %v, want the stale entry still indexed", rows)
	}
	hits, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("session saw its own deleted row: %+v", hits)
	}
}

func TestSessionRange(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, AsyncSession, "price")
	blockAsync(e)
	s := e.m.NewSession(e.cl)
	defer s.End()
	for i := 0; i < 5; i++ {
		s.Put(e.tbl, []byte(fmt.Sprintf("item%03d", i)), map[string][]byte{"price": []byte(fmt.Sprintf("%03d", i*10))})
	}
	hits, err := s.RangeByIndex(e.tbl, []string{"price"}, []byte("010"), []byte("030"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("session range hits = %+v", hits)
	}
	// Limit applies after the merge.
	hits, _ = s.RangeByIndex(e.tbl, []string{"price"}, []byte("000"), nil, 2)
	if len(hits) != 2 {
		t.Fatalf("limited session range = %+v", hits)
	}
	e.c.Net.HealAll()
}

func TestSessionExpiry(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{SessionTTL: 5 * time.Millisecond})
	e.createIndex(t, AsyncSession, "title")
	s := e.m.NewSession(e.cl)
	if _, err := s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("x")); err != ErrSessionExpired {
		t.Errorf("expired session read: %v", err)
	}
	if _, err := s.Put(e.tbl, []byte("item002"), map[string][]byte{"title": []byte("y")}); err != ErrSessionExpired {
		t.Errorf("expired session put: %v", err)
	}
}

func TestSessionEnd(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")
	s := e.m.NewSession(e.cl)
	if s.ID() == "" {
		t.Error("empty session ID")
	}
	s.End()
	if _, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("x")); err != ErrSessionExpired {
		t.Errorf("ended session read: %v", err)
	}
}

func TestSessionMemoryCapDegrades(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{SessionMaxBytes: 256})
	e.createIndex(t, AsyncSession, "title")
	s := e.m.NewSession(e.cl)
	defer s.End()
	for i := 0; i < 50 && !s.Degraded(); i++ {
		if _, err := s.Put(e.tbl, []byte(fmt.Sprintf("item%03d", i)), map[string][]byte{
			"title": []byte(fmt.Sprintf("a-rather-long-title-%04d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Degraded() {
		t.Fatal("session never degraded despite tiny memory cap")
	}
	// Degraded sessions still work, just without the read-your-write
	// guarantee (plain eventual consistency).
	if _, err := s.Put(e.tbl, []byte("item999"), map[string][]byte{"title": []byte("t")}); err != nil {
		t.Fatal(err)
	}
	if !e.m.WaitForConvergence(5 * time.Second) {
		t.Fatal("no convergence")
	}
	if _, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("t")); err != nil {
		t.Fatal(err)
	}
}

func TestSessionOnSyncIndexIsTransparent(t *testing.T) {
	// Session APIs over a synchronous index: private state is not tracked
	// (unnecessary) and reads behave like plain reads.
	e := newEnv(t, 2, ManagerOptions{})
	e.createIndex(t, SyncFull, "title")
	s := e.m.NewSession(e.cl)
	defer s.End()
	s.Put(e.tbl, []byte("item001"), map[string][]byte{"title": []byte("v")})
	hits, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("v"))
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits=%+v err=%v", hits, err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			cl := cluster.NewClient(e.c, fmt.Sprintf("sess-client-%d", g))
			s := e.m.NewSession(cl)
			defer s.End()
			for i := 0; i < 25; i++ {
				row := []byte(fmt.Sprintf("item%d%02d", g, i))
				title := []byte(fmt.Sprintf("g%d-t%d", g, i))
				if _, err := s.Put(e.tbl, row, map[string][]byte{"title": title}); err != nil {
					done <- err
					return
				}
				hits, err := s.GetByIndex(e.tbl, []string{"title"}, title)
				if err != nil {
					done <- err
					return
				}
				if len(hits) != 1 {
					done <- fmt.Errorf("goroutine %d: read-your-write violated for %s (%d hits)", g, row, len(hits))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestSessionSurvivesServerCrash(t *testing.T) {
	// The session cache lives in the client library, so read-your-writes
	// holds even across a region-server crash: the private entries bridge
	// the gap while WAL replay re-enqueues the lost AUQ work.
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, AsyncSession, "title")
	blockAsync(e)

	s := e.m.NewSession(e.cl)
	defer s.End()
	for i := 0; i < 10; i++ {
		if _, err := s.Put(e.tbl, []byte(fmt.Sprintf("item%03d", i)), map[string][]byte{
			"title": []byte("mine"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the server hosting the first base region while its AUQ holds
	// the pending index work.
	ri, _ := e.c.Master.Locate(e.tbl, []byte("item000"))
	if err := e.c.Master.CrashServer(ri.Server); err != nil {
		t.Fatal(err)
	}
	// Session reads still see every write (client-side merge).
	hits, err := s.GetByIndex(e.tbl, []string{"title"}, []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 {
		t.Fatalf("session hits after crash = %d, want 10", len(hits))
	}
	// After heal + convergence the server state agrees, still exactly once.
	e.c.Net.HealAll()
	if !e.m.WaitForConvergence(10 * time.Second) {
		t.Fatal("no convergence after crash")
	}
	hits, _ = s.GetByIndex(e.tbl, []string{"title"}, []byte("mine"))
	if len(hits) != 10 {
		t.Fatalf("session hits after convergence = %d", len(hits))
	}
}
