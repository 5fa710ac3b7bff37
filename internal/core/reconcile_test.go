package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
	"diffindex/internal/metrics"
	"diffindex/internal/vfs"
	"diffindex/internal/wal"
)

// keepWALFS drops every removal of a WAL segment, so a region's log keeps
// every cell the region was ever sent.
type keepWALFS struct{ vfs.FS }

func (fs keepWALFS) Remove(name string) error {
	if strings.HasSuffix(name, ".wal") {
		return nil
	}
	return fs.FS.Remove(name)
}

// newCompactionEnv builds a cluster whose stores compact eagerly: two
// SSTables of one size tier (every table of these small stores) arm a round, which keeps each key's newest version only (every
// input is at or below the GC horizon it raises), so every overwrite that
// reaches a second flush is garbage-collected on the next merge. The
// WALs are never truncated, so indexLog sees every cell the title index was
// ever sent.
func newCompactionEnv(t testing.TB) *env {
	t.Helper()
	c := cluster.New(cluster.Config{
		Servers:         3,
		BaseFS:          keepWALFS{vfs.NewMemFS()},
		CompactionFanIn: 2,
	})
	t.Cleanup(func() { c.Close() })
	m := NewManager(c, ManagerOptions{})
	if err := c.Master.CreateTable("items", [][]byte{[]byte("item500")}); err != nil {
		t.Fatal(err)
	}
	return &env{c: c, m: m, cl: cluster.NewClient(c, "testclient"), tbl: "items"}
}

// indexLog returns every cell written to the title index's table,
// tombstones included, in apply order, by replaying its (single) region's
// WAL segments. The segments are replayed from a copy, because opening a
// log starts a new segment in its directory. An index that does not exist
// yet has an empty log.
func (e *env) indexLog(t testing.TB, def IndexDef) []kv.Cell {
	t.Helper()
	regions, err := e.c.Master.RegionsOf(def.Name())
	if err != nil {
		return nil
	}
	if len(regions) != 1 {
		t.Fatalf("index table %s has %d regions, want 1", def.Name(), len(regions))
	}
	dir := fmt.Sprintf("tables/%s/%s/wal", def.Name(), regions[0].ID)
	names, err := e.c.FS.List(dir + "/")
	if err != nil {
		t.Fatal(err)
	}
	logCopy := vfs.NewMemFS()
	for _, name := range names {
		src, err := e.c.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := src.Size()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		if n, err := src.ReadAt(buf, 0); n < len(buf) {
			t.Fatalf("read %s: %d of %d bytes: %v", name, n, len(buf), err)
		}
		src.Close()
		dst, err := logCopy.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Write(buf); err != nil {
			t.Fatal(err)
		}
		dst.Close()
	}
	var out []kv.Cell
	l, err := wal.Open(logCopy, dir, func(r wal.Record) { out = append(out, r.Cell()) })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return out
}

// rawPut writes base cells through the raw apply path, which bypasses the
// coprocessor: the base table has the row, no index ever saw it.
func (e *env) rawPut(t testing.TB, row string, ts kv.Timestamp, col, val string) {
	t.Helper()
	if err := e.cl.MultiApply(e.tbl, []kv.Cell{{
		Key: kv.BaseKey([]byte(row), []byte(col)), Value: []byte(val), Ts: ts, Kind: kv.KindPut,
	}}); err != nil {
		t.Fatal(err)
	}
}

func (e *env) reconcileCount(stat, source, kind string) int64 {
	return e.m.reg.Counter("diffindex_reconcile_"+stat+"_total", metrics.L("source", source), metrics.L("kind", kind)).Load()
}

// TestReconcileTimestampRule is the one test of the §4.3 repair-timestamp
// rule: every enumerator that feeds the reconcile engine must end in a
// delete at the stale entry's OWN timestamp or an insert at the newest
// timestamp among the row's INDEXED columns. For each it checks the cell
// the engine emitted, that redelivering that cell changes nothing, and that
// the repair is ordered correctly against a later live update of the row.
func TestReconcileTimestampRule(t *testing.T) {
	title := IndexDef{Table: "items", Columns: []string{"title"}}
	cases := []struct {
		name   string
		scheme Scheme
		// run builds one divergence and feeds it through the enumerator; it
		// returns the cell the rule prescribes. The index is created by run
		// (backfill) when created is false.
		created bool
		run     func(t *testing.T, e *env) kv.Cell
		// liveRow/liveVal is a later live update of the title; afterwards
		// visible must be a raw entry and masked must not be.
		liveRow, liveVal string
		visible, masked  string
	}{
		{
			name: "read hit", scheme: SyncInsert, created: true,
			run: func(t *testing.T, e *env) kv.Cell {
				ts := e.put(t, "item001", "title", "old")
				e.put(t, "item001", "title", "new")
				if rows := e.lookupRows(t, []string{"title"}, "old"); len(rows) != 0 {
					t.Fatalf("stale entry served: %v", rows)
				}
				return kv.Cell{Key: kv.IndexKey([]byte("old"), []byte("item001")), Ts: ts, Kind: kv.KindDelete}
			},
			// The row takes the old value again: the re-inserted entry is
			// newer than the repair's tombstone and must survive it.
			liveRow: "item001", liveVal: "old", visible: "old→item001",
		},
		{
			name: "verify stale", scheme: SyncFull, created: true,
			run: func(t *testing.T, e *env) kv.Cell {
				e.put(t, "item042", "title", "real")
				phantom := kv.Cell{Key: kv.IndexKey([]byte("phantom"), []byte("item042")), Ts: 777777, Kind: kv.KindPut}
				if err := e.cl.MultiApply(title.Name(), []kv.Cell{phantom}); err != nil {
					t.Fatal(err)
				}
				if rep := verifyOne(t, e); rep.Stale != 1 || rep.Repaired != 1 {
					t.Fatalf("verify: %s", rep)
				}
				phantom.Kind = kv.KindDelete
				return phantom
			},
			liveRow: "item042", liveVal: "phantom", visible: "phantom→item042", masked: "real→item042",
		},
		{
			name: "verify missing", scheme: SyncFull, created: true,
			run: func(t *testing.T, e *env) kv.Cell {
				e.rawPut(t, "item123", 900000, "title", "lost")
				e.rawPut(t, "item123", 900005, "price", "9") // newer, not indexed
				if rep := verifyOne(t, e); rep.Missing != 1 || rep.Repaired != 1 {
					t.Fatalf("verify: %s", rep)
				}
				return kv.Cell{Key: kv.IndexKey([]byte("lost"), []byte("item123")), Ts: 900000, Kind: kv.KindPut}
			},
			// Sync-full deletes the superseded entry at t_new − δ; that
			// tombstone must mask the repaired-in entry.
			liveRow: "item123", liveVal: "found", visible: "found→item123", masked: "lost→item123",
		},
		{
			name: "compaction-dropped", scheme: SyncInsert, created: true,
			run: func(t *testing.T, e *env) kv.Cell {
				ts := e.put(t, "item001", "title", "old")
				if err := e.c.FlushAll(); err != nil {
					t.Fatal(err)
				}
				e.put(t, "item001", "title", "new")
				if err := e.c.FlushAll(); err != nil {
					t.Fatal(err)
				}
				e.c.WaitCompactions()
				return kv.Cell{Key: kv.IndexKey([]byte("old"), []byte("item001")), Ts: ts, Kind: kv.KindDelete}
			},
			liveRow: "item001", liveVal: "old", visible: "old→item001",
		},
		{
			name: "backfill", scheme: SyncFull,
			run: func(t *testing.T, e *env) kv.Cell {
				ts := e.put(t, "item001", "title", "t")
				e.put(t, "item001", "price", "9") // newer, not indexed
				e.createIndex(t, SyncFull, "title")
				return kv.Cell{Key: kv.IndexKey([]byte("t"), []byte("item001")), Ts: ts, Kind: kv.KindPut}
			},
			liveRow: "item001", liveVal: "u", visible: "u→item001", masked: "t→item001",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newCompactionEnv(t)
			def := title
			def.Scheme = c.scheme
			if c.created {
				e.createIndex(t, c.scheme, "title")
			}
			want := c.run(t, e)

			// The engine's cell is the last one the index table received.
			log := e.indexLog(t, def)
			if len(log) == 0 {
				t.Fatal("index table received no cell")
			}
			if got := log[len(log)-1]; !reflect.DeepEqual(got, want) {
				t.Fatalf("emitted %s %q @%d, want %s %q @%d", got.Kind, got.Key, got.Ts, want.Kind, want.Key, want.Ts)
			}

			// At-least-once redelivery of the same repair changes nothing.
			before := e.rawIndexEntries(t, def)
			if err := e.cl.MultiApply(def.Name(), []kv.Cell{want}); err != nil {
				t.Fatal(err)
			}
			if after := e.rawIndexEntries(t, def); !reflect.DeepEqual(after, before) {
				t.Errorf("redelivered repair changed the index: %v → %v", before, after)
			}

			e.put(t, c.liveRow, "title", c.liveVal)
			entries := e.rawIndexEntries(t, def)
			if !slices.Contains(entries, c.visible) {
				t.Errorf("after live update, %s missing from %v", c.visible, entries)
			}
			if c.masked != "" && slices.Contains(entries, c.masked) {
				t.Errorf("after live update, %s still in %v", c.masked, entries)
			}
		})
	}
}

// A sync-insert index created over a populated table whose row has a newer
// NON-indexed column: the backfilled entry must carry the indexed column's
// timestamp, and the compaction hook must delete it at the entry's own
// timestamp — whatever the dropped base cell's was — or the tombstone lands
// below the entry and the stale entry survives a "repair".
func TestCompactionRepairAfterBackfillWithNewerColumn(t *testing.T) {
	e := newCompactionEnv(t)
	e.put(t, "item001", "title", "old")
	e.put(t, "item001", "price", "9")
	def := e.createIndex(t, SyncInsert, "title")
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.put(t, "item001", "title", "new")
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.c.WaitCompactions()

	if raw := e.rawIndexEntries(t, def); !reflect.DeepEqual(raw, []string{"new→item001"}) {
		t.Errorf("raw entries after compaction = %v, want [new→item001]", raw)
	}
	if got := e.reconcileCount("repaired", srcCompaction, "stale"); got != 1 {
		t.Errorf("compaction repaired counter = %d, want 1", got)
	}
}

// Schemes that delete the superseded entry themselves leave the compaction
// hook nothing to clean: it must send their index tables no cell at all —
// index tables retain tombstones forever — and count no repair.
func TestCompactionHookLeavesCleanSchemesAlone(t *testing.T) {
	for _, scheme := range []Scheme{SyncFull, AsyncSimple} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := newCompactionEnv(t)
			def := e.createIndex(t, scheme, "title")
			for gen := 0; gen < 3; gen++ {
				for i := 0; i < 10; i++ {
					e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("g%d-%d", gen, i))
				}
				if err := e.c.FlushAll(); err != nil { // drains the AUQ first
					t.Fatal(err)
				}
			}
			e.c.WaitCompactions()
			if rounds := e.m.reg.Counter("diffindex_compaction_rounds_total", metrics.L("table", e.tbl)).Load(); rounds == 0 {
				t.Fatal("no compaction round ran; the hook was never exercised")
			}

			// Maintenance alone: 10 inserts, then twice 10 inserts + 10 deletes.
			if cells := e.indexLog(t, def); len(cells) != 50 {
				t.Errorf("index table received %d cells, want 50 (maintenance only)", len(cells))
			}
			for _, stat := range []string{"checked", "confirmed", "repaired"} {
				if got := e.reconcileCount(stat, srcCompaction, "stale"); got != 0 {
					t.Errorf("compaction %s counter = %d, want 0", stat, got)
				}
			}
			if raw := e.rawIndexEntries(t, def); len(raw) != 10 {
				t.Errorf("visible entries = %d, want 10", len(raw))
			}
		})
	}
}

// Sync-insert never deletes superseded entries, so overwrites accumulate
// stale index entries. Compaction's version GC drops the old base cells, the
// PostCompact hook feeds them to the reconcile engine, and the stale entries
// those values name are repaired without any sweep; live entries are never
// touched.
func TestCompactionHookRepairsStaleEntries(t *testing.T) {
	e := newCompactionEnv(t)
	def := e.createIndex(t, SyncInsert, "title")

	for i := 0; i < 10; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("g0-%d", i))
	}
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", fmt.Sprintf("g1-%d", i))
	}
	if raw := e.rawIndexEntries(t, def); len(raw) != 20 { // 10 live + 10 stale
		t.Fatalf("raw entries before compaction = %d, want 20", len(raw))
	}

	// The second flush gives each base region two tables, arming a round;
	// the round keeps each key's newest version, so it drops every g0 cell,
	// and the hook cleans their entries.
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.c.WaitCompactions()

	raw := e.rawIndexEntries(t, def)
	if len(raw) != 10 {
		t.Errorf("raw entries after compaction = %d, want 10 (stale g0 repaired): %v", len(raw), raw)
	}
	for _, entry := range raw {
		if entry[:2] != "g1" {
			t.Errorf("stale entry survived the compaction hook: %s", entry)
		}
	}
	for i := 0; i < 10; i++ {
		rows := e.lookupRows(t, []string{"title"}, fmt.Sprintf("g1-%d", i))
		if len(rows) != 1 || rows[0] != fmt.Sprintf("item%03d", i) {
			t.Errorf("g1-%d lookup = %v", i, rows)
		}
	}
	// A verify sweep now finds nothing left to repair.
	if rep := verifyOne(t, e); !clean(rep) {
		t.Errorf("post-compaction verify = %s; want clean", rep)
	}
}

// The read path's shape does not depend on the read's size: one MultiScan, one
// MultiGet wave, one MultiApply, however many hits — only the sweeps chunk. A
// read of 700 stale hits costs the same number of scatter-gather waves as a
// read of 10.
func TestLargeReadIsOneWave(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	e.createIndex(t, SyncInsert, "title")
	for i := 0; i < 710; i++ {
		title := "big"
		if i >= 700 {
			title = "small"
		}
		e.put(t, fmt.Sprintf("item%03d", i), "title", title)
	}
	for i := 0; i < 710; i++ {
		e.put(t, fmt.Sprintf("item%03d", i), "title", "moved")
	}
	waves := e.c.Metrics().Counter("diffindex_fanout_waves_total")
	wavesOf := func(value string) int64 {
		before := waves.Load()
		if rows := e.lookupRows(t, []string{"title"}, value); len(rows) != 0 {
			t.Fatalf("lookup(%s) = %d rows, want none: every entry is stale", value, len(rows))
		}
		return waves.Load() - before
	}
	small, big := wavesOf("small"), wavesOf("big")
	if small != big {
		t.Errorf("a 700-hit read took %d waves, a 10-hit read %d: the read path must not chunk", big, small)
	}
	if got := e.reconcileCount("repaired", srcRead, "stale"); got != 710 {
		t.Errorf("read repairs = %d, want 710", got)
	}
}

// A compaction-hook candidate carries no timestamp, so the engine reads the
// entry's own — and must read it BEFORE the base row that judges it. Read
// after, a live put that returns the row to the dropped value between the two
// reads hands the delete the LIVE entry's timestamp: the base check saw the
// other value, the index lookup sees the new entry, the tombstone masks it,
// and a sync-insert read never repairs a missing entry. One goroutine feeds
// both values of a toggling row to the engine as dropped versions while the
// row toggles; whatever the interleaving, the entry for the row's current
// value must survive.
func TestCompactionCandidatesRaceLivePuts(t *testing.T) {
	e := newEnv(t, 3, ManagerOptions{})
	def := e.createIndex(t, SyncInsert, "title")
	row := []byte("item001")
	vals := []string{"A", "B"}
	cands := []IndexEntryPair{{Value: []byte("A"), Row: row}, {Value: []byte("B"), Row: row}}

	for round := 0; round < 150; round++ {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			cl := e.m.clientFor("hook")
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := e.m.reconcile(cl, def, srcCompaction, cands, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		var current string
		for i := 0; i < 4; i++ {
			current = vals[(round+i)%2]
			e.put(t, "item001", "title", current)
		}
		close(stop)
		<-done
		if raw := e.rawIndexEntries(t, def); !slices.Contains(raw, current+"→item001") {
			t.Fatalf("round %d: base row holds %q but the index holds %v: a repair masked the live entry", round, current, raw)
		}
	}
}

// Composite (multi-column) indexes must be left alone: a dropped cell holds
// only one column's old value, not the row's other columns at that
// timestamp, so no candidate entry can be reconstructed. The stale entry
// stays until a read or a verify sweep.
func TestCompactionHookSkipsCompositeIndexes(t *testing.T) {
	e := newCompactionEnv(t)
	def := e.createIndex(t, SyncInsert, "title", "author")

	e.put(t, "item001", "title", "old")
	e.put(t, "item001", "author", "ann")
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.put(t, "item001", "title", "new")
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.c.WaitCompactions()

	raw := e.rawIndexEntries(t, def)
	if len(raw) != 2 { // old+ann (stale) and new+ann (live)
		t.Errorf("composite entries after compaction = %v, want both (stale untouched)", raw)
	}
}

// TestVerifyRestoresEmptiedIndex: the base table is the truth and the index
// a derivable cache, so a verify sweep over an EMPTY index table — index
// storage restored from scratch — must rebuild it entry for entry, each at
// the newest timestamp among its row's indexed columns, from a history of
// puts, overwrites and deletes that spans a flush.
func TestVerifyRestoresEmptiedIndex(t *testing.T) {
	e := newEnv(t, 2, ManagerOptions{})
	put := func(row, title string) {
		t.Helper()
		if _, err := e.cl.Put(e.tbl, []byte(row), map[string][]byte{"title": []byte(title), "price": []byte("9")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("item%03d", i*20), fmt.Sprintf("title%02d", i%10))
	}
	if err := e.c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("item%03d", i*20), fmt.Sprintf("retitled%02d", i))
	}
	for i := 30; i < 35; i++ {
		if _, err := e.cl.Delete(e.tbl, []byte(fmt.Sprintf("item%03d", i*20)), []string{"title"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.cl.Delete(e.tbl, []byte("item700"), []string{"title", "price"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // a newer non-indexed column on every row
		e.put(t, fmt.Sprintf("item%03d", i*20), "stock", "1")
	}

	// The index definition and its empty table, without the backfill.
	def := IndexDef{Table: e.tbl, Columns: []string{"title"}, Scheme: SyncFull}
	if err := e.m.catalog.Add(def); err != nil {
		t.Fatal(err)
	}
	e.c.RegisterCoprocessor(def.Table, &observer{m: e.m})
	e.c.RetainTombstones(def.Name())
	if err := e.c.Master.CreateRawTable(def.Name(), nil); err != nil {
		t.Fatal(err)
	}

	rep := verifyOne(t, e)
	// 40 rows − 6 with the title deleted = 34 entries.
	if rep.Missing != 34 || rep.Repaired != 34 || rep.Stale != 0 {
		t.Fatalf("restoring sweep: %s", rep)
	}

	// Entry for entry: exactly the (title ⊕ row) keys of the visible title
	// cells, each at that title cell's timestamp.
	type entry struct {
		key string
		ts  kv.Timestamp
	}
	var want, got []entry
	for _, sr := range scanOne(t, e.cl, e.tbl, cluster.RowRangeSpec(nil, nil)) {
		if row, col, err := kv.SplitBaseKey(sr.Key); err == nil && string(col) == "title" {
			want = append(want, entry{string(kv.IndexKey(sr.Value, row)), sr.Ts})
		}
	}
	for _, sr := range scanOne(t, e.cl, def.Name(), cluster.ScanSpec{}) {
		got = append(got, entry{string(sr.Key), sr.Ts})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].key < want[j].key })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored index differs from the base table's pairs:\n got %v\nwant %v", got, want)
	}

	if rep = verifyOne(t, e); !clean(rep) {
		t.Errorf("second sweep = %s; want clean", rep)
	}
	// The registered coprocessor keeps maintaining the restored index.
	put("item001", "fresh")
	if rows := e.lookupRows(t, []string{"title"}, "fresh"); len(rows) != 1 || rows[0] != "item001" {
		t.Errorf("post-restore maintenance: lookup(fresh) = %v", rows)
	}
	// item000 was retitled and item600 lost its title: of the four rows that
	// took title00 only two still carry it.
	rows := e.lookupRows(t, []string{"title"}, "title00")
	sort.Strings(rows)
	if !reflect.DeepEqual(rows, []string{"item200", "item400"}) {
		t.Errorf("lookup(title00) = %v, want [item200 item400]", rows)
	}
}
