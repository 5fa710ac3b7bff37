package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"diffindex/internal/kv"
)

// expectedIndexEntries recomputes what an index's live entries should be
// from a full scan of the base table: the ground truth every scheme must
// converge to.
func expectedIndexEntries(t *testing.T, e *env, def IndexDef) []string {
	t.Helper()
	rows, err := e.cl.Scan(def.Table, nil, nil, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		if v, ok := indexValue(def, row.Cols); ok {
			out = append(out, fmt.Sprintf("%s→%s", v, row.Key))
		}
	}
	sort.Strings(out)
	return out
}

// liveIndexEntries reads an index's entries the way its scheme intends:
// via GetByIndex/read-repair semantics. For sync-insert, stale entries must
// first be flushed out with repairing reads; for others a raw scan is the
// truth.
func liveIndexEntries(t *testing.T, e *env, def IndexDef) []string {
	t.Helper()
	if def.Scheme == SyncInsert {
		// Repair pass: read every distinct value currently in the index so
		// stale entries get cleaned (Algorithm 2), then re-scan.
		seen := map[string]bool{}
		for _, en := range e.rawIndexEntries(t, def) {
			val, _, ok := strings.Cut(en, "→")
			if !ok || seen[val] {
				continue
			}
			seen[val] = true
			if _, err := e.m.GetByIndex(e.cl, def.Table, def.Columns, []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := e.rawIndexEntries(t, def)
	sort.Strings(out)
	return out
}

// TestConvergencePropertyAllSchemes drives a random workload of puts,
// updates and deletes against one index per scheme, waits for quiescence,
// and checks every index equals the ground truth rebuilt from the base
// table. This is the paper's core correctness claim: all schemes converge
// to a correct index; they differ only in when.
func TestConvergencePropertyAllSchemes(t *testing.T) {
	schemes := []Scheme{SyncFull, SyncInsert, AsyncSimple, AsyncSession}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 3, ManagerOptions{})
		defs := make([]IndexDef, len(schemes))
		for i, s := range schemes {
			defs[i] = e.createIndex(t, s, fmt.Sprintf("col%d", i))
		}
		rows := []string{"item001", "item100", "item400", "item600", "item800", "item999"}
		values := []string{"a", "bb", "ccc", "dd", "e"}
		for op := 0; op < 120; op++ {
			row := rows[rng.Intn(len(rows))]
			col := fmt.Sprintf("col%d", rng.Intn(len(schemes)))
			switch rng.Intn(10) {
			case 0:
				if _, err := e.cl.Delete(e.tbl, []byte(row), []string{col}); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if _, err := e.cl.Delete(e.tbl, []byte(row), nil); err != nil {
					t.Log(err)
					return false
				}
			default:
				if _, err := e.cl.Put(e.tbl, []byte(row), map[string][]byte{
					col: []byte(values[rng.Intn(len(values))]),
				}); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		if !e.m.WaitForConvergence(10 * time.Second) {
			t.Log("no convergence")
			return false
		}
		for _, def := range defs {
			want := expectedIndexEntries(t, e, def)
			got := liveIndexEntries(t, e, def)
			if len(want) != len(got) {
				t.Logf("seed %d %s(%s): want %v got %v", seed, def.Scheme, def.Name(), want, got)
				return false
			}
			for i := range want {
				if want[i] != got[i] {
					t.Logf("seed %d %s(%s): want %v got %v", seed, def.Scheme, def.Name(), want, got)
					return false
				}
			}
		}
		e.c.Close()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestConvergenceUnderCrashProperty mixes random crashes into the workload
// and still requires convergence to ground truth afterwards.
func TestConvergenceUnderCrashProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 4, ManagerOptions{})
		def := e.createIndex(t, AsyncSimple, "title")
		rows := []string{"item001", "item200", "item600", "item900"}
		crashes := 0
		for op := 0; op < 80; op++ {
			row := rows[rng.Intn(len(rows))]
			if _, err := e.cl.Put(e.tbl, []byte(row), map[string][]byte{
				"title": []byte(fmt.Sprintf("v%d", rng.Intn(6))),
			}); err != nil {
				t.Log(err)
				return false
			}
			if crashes < 2 && rng.Intn(40) == 0 {
				live := e.c.LiveServerIDs()
				if len(live) > 2 {
					if err := e.c.Master.CrashServer(live[rng.Intn(len(live))]); err != nil {
						t.Log(err)
						return false
					}
					crashes++
				}
			}
		}
		if !e.m.WaitForConvergence(10 * time.Second) {
			t.Log("no convergence after crashes")
			return false
		}
		want := expectedIndexEntries(t, e, def)
		got := liveIndexEntries(t, e, def)
		if len(want) != len(got) {
			t.Logf("seed %d: want %v got %v", seed, want, got)
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				t.Logf("seed %d: want %v got %v", seed, want, got)
				return false
			}
		}
		e.c.Close()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
