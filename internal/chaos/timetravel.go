package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/vfs"
)

// RunTimeTravel runs the recovery crash scenario (DESIGN.md §13): a seeded
// workload of puts/overwrites/deletes is driven through an LSM store while
// golden per-timestamp observations are recorded, with a flush part way that
// truncates the log; then every WAL write is torn during a burst of data
// appends, more mutations are acknowledged past the torn frames, the store
// is abandoned without Close (the crash), and recovery is checked two ways:
//
//  1. replay delivers exactly the mutations acknowledged since the flush,
//     record for record and in order — nothing the flush truncated, nothing
//     from a torn frame, nothing acknowledged lost behind one;
//  2. every golden observation must read back byte-identically through an
//     as-of Get on the recovered store — time-travel reads survive the crash.
func RunTimeTravel(seed int64) (*TimeTravelResult, error) {
	res := &TimeTravelResult{Seed: seed}
	begin := time.Now()
	check := func(ok bool, invariant, format string, args ...any) {
		res.Checked++
		if !ok {
			res.Violations = append(res.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
		}
	}

	const dir = "timetravel"
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	open := func(onReplay func(kv.Cell)) (*lsm.Store, error) {
		return lsm.Open(lsm.Options{
			FS:                 fault,
			Dir:                dir,
			DisableAutoFlush:   true,
			DisableAutoCompact: true,
			DisableScrub:       true,
			OnReplay:           onReplay,
		})
	}
	store, err := open(nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: timetravel open: %w", err)
	}

	// Seeded workload over a small keyspace: ~85% puts, ~15% deletes, with
	// a shadow state snapshotted into golden observations as the clock
	// advances. Only acknowledged mutations update the shadow and the acked
	// list; mutate returns how many of its n attempts failed.
	rng := rand.New(rand.NewSource(seed))
	clock := kv.NewClock(1)
	const keyspace = 48
	shadow := map[string]string{}
	type observation struct {
		ts    kv.Timestamp
		state map[string]string
	}
	var golden []observation
	var acked []kv.Cell
	observe := func() {
		state := make(map[string]string, len(shadow))
		for k, v := range shadow {
			state[k] = v
		}
		golden = append(golden, observation{ts: clock.Now(), state: state})
	}
	mutate := func(n int) (failed int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%03d", rng.Intn(keyspace))
			c := kv.Cell{Key: []byte(key), Ts: clock.Next(), Kind: kv.KindPut}
			if rng.Float64() < 0.15 {
				c.Kind = kv.KindDelete
			} else {
				c.Value = []byte(fmt.Sprintf("v%d", c.Ts))
			}
			if err := store.Apply(c); err != nil {
				failed++
				continue
			}
			if c.Kind == kv.KindDelete {
				delete(shadow, key)
			} else {
				shadow[key] = string(c.Value)
			}
			acked = append(acked, c)
			res.Ops++
			if res.Ops%25 == 0 {
				observe()
			}
		}
		return failed
	}

	// Phase A: build history and flush part of it into SSTables, truncating
	// the log it came from.
	if failed := mutate(120); failed > 0 {
		return nil, fmt.Errorf("chaos: timetravel: %d unfaulted mutations failed", failed)
	}
	if err := store.Flush(); err != nil {
		return nil, fmt.Errorf("chaos: timetravel flush: %w", err)
	}
	flushed := len(acked) // acked[flushed:] is what recovery must replay
	if failed := mutate(100); failed > 0 {
		return nil, fmt.Errorf("chaos: timetravel: %d unfaulted mutations failed", failed)
	}

	// Phase B: tear every WAL write during a burst of data appends. Each
	// failed put leaves a half-written frame on disk — the state of a process
	// that died inside an append — and stays out of the shadow.
	const burst = 12
	fault.Arm(vfs.FaultConfig{
		Seed:             mix(seed, "torn-appends"),
		PartialWriteProb: 1,
		PathSubstr:       ".wal",
	})
	res.TornWrites = mutate(burst)
	fault.Disarm()
	check(res.TornWrites == burst, "torn-window",
		"%d of %d appends survived a 100%% torn-write window", burst-res.TornWrites, burst)

	// More acknowledged mutations: the first append must roll off the
	// tainted segment, or replay would stop at the tear in front of it.
	tainted := store.ActiveWALSegment()
	if failed := mutate(20); failed > 0 {
		return nil, fmt.Errorf("chaos: timetravel: %d mutations failed after the fault window", failed)
	}
	check(store.ActiveWALSegment() > tainted, "taint-roll",
		"acknowledged appends stayed on tainted segment %d", tainted)
	observe()

	// The crash: abandon the store without Close. Background writers are
	// all disabled, so the directory now looks exactly like a kill -9.
	store = nil

	// Check 1: recovery replays exactly the acknowledged unflushed mutations.
	var replayed []kv.Cell
	recovered, err := open(func(c kv.Cell) { replayed = append(replayed, c.Clone()) })
	if err != nil {
		return nil, fmt.Errorf("chaos: timetravel recover: %w", err)
	}
	defer recovered.Close()
	res.ReplayedCells = len(replayed)
	diff := divergence(replayed, acked[flushed:])
	check(diff == "", "replay-complete",
		"recovery replay diverges from the %d mutations acknowledged since the flush: %s", len(acked)-flushed, diff)

	// Check 2: golden time-travel reads on the recovered store. Every key in
	// the keyspace at every observed instant must read exactly what a reader
	// saw when that instant was the present.
	for _, obs := range golden {
		mismatches := 0
		var first string
		for i := 0; i < keyspace; i++ {
			key := fmt.Sprintf("key%03d", i)
			cell, ok, err := recovered.Get([]byte(key), obs.ts)
			if err != nil {
				return nil, fmt.Errorf("chaos: timetravel Get(%s@%d): %w", key, obs.ts, err)
			}
			res.AsOfReads++
			want, exists := obs.state[key]
			if ok != exists || (ok && string(cell.Value) != want) {
				mismatches++
				if first == "" {
					first = fmt.Sprintf("%s@%d = (%q,%v), want (%q,%v)",
						key, obs.ts, cell.Value, ok, want, exists)
				}
			}
		}
		check(mismatches == 0, "as-of-golden",
			"observation at ts=%d: %d/%d keys diverge after recovery (first: %s)",
			obs.ts, mismatches, keyspace, first)
	}

	res.Elapsed = time.Since(begin)
	return res, nil
}

// divergence describes the first difference between got and want — key,
// timestamp, kind or value of a record, or the record count — or returns ""
// when they are the same mutations in the same order.
func divergence(got, want []kv.Cell) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Key, w.Key) || g.Ts != w.Ts || g.Kind != w.Kind || !bytes.Equal(g.Value, w.Value) {
			return fmt.Sprintf("record %d is %s %q@%d=%q, want %s %q@%d=%q",
				i, g.Kind, g.Key, g.Ts, g.Value, w.Kind, w.Key, w.Ts, w.Value)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	return ""
}

// TimeTravelResult is one time-travel crash scenario's outcome.
type TimeTravelResult struct {
	Seed int64
	// Ops counts acknowledged mutations; TornWrites the appends the fault
	// window failed, each leaving a torn frame on disk.
	Ops        int
	TornWrites int
	// ReplayedCells is how many cells recovery replayed; AsOfReads the
	// golden point-in-time reads evaluated.
	ReplayedCells int
	AsOfReads     int
	// Checked counts assertions evaluated; Violations the failed ones.
	Checked    int
	Violations []Violation
	Elapsed    time.Duration
}

// OK reports whether every time-travel assertion held.
func (r *TimeTravelResult) OK() bool { return len(r.Violations) == 0 }
