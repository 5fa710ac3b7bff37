package lsm

import (
	"bytes"
	"fmt"
	"maps"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// readCountFS counts positional reads per file name.
type readCountFS struct {
	vfs.FS
	mu    sync.Mutex
	reads map[string]int
}

type readCountFile struct {
	vfs.File
	fs   *readCountFS
	name string
}

func (fs *readCountFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, fs: fs, name: name}, nil
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads[f.name]++
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// take returns the reads counted since the last call and resets them.
func (fs *readCountFS) take() map[string]int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := fs.reads
	fs.reads = map[string]int{}
	return out
}

// TestRowScanSkipsTablesWithoutTheRow builds a store of five tables whose
// key ranges all overlap — rows are dealt round-robin over four of them,
// and the fifth rewrites every eighth row — so only the filter's first-part
// entries can tell the tables apart. With no block cache every data block a
// scan touches is a file read, so the reads show which tables a row scan
// opened: the ones that hold the row, plus a table whose filter admits the
// row falsely at the filter's ≈1 % rate. The cells must match a model, at
// the newest timestamp and as of every older one, where they must also
// match per-column point reads.
func TestRowScanSkipsTablesWithoutTheRow(t *testing.T) {
	fs := &readCountFS{FS: vfs.NewMemFS(), reads: map[string]int{}}
	s := newTestStore(t, fs)
	defer s.Close()

	const rows = 200
	cols := []string{"price", "qty", "title"}
	rowKey := func(i int) []byte { return []byte(fmt.Sprintf("item%04d", i)) }
	// model[ts][row][col] is the row's visible value as of ts.
	type rowState map[string]string
	model := map[kv.Timestamp]map[int]rowState{}
	cur := map[int]rowState{}
	snapshot := func(ts kv.Timestamp) {
		m := map[int]rowState{}
		for r, st := range cur {
			cp := rowState{}
			for c, v := range st {
				cp[c] = v
			}
			m[r] = cp
		}
		model[ts] = m
	}
	owners := map[int][]int{} // row → indexes (flush order) of the tables holding it

	ts := kv.Timestamp(0)
	for table := 0; table < 4; table++ {
		ts++
		for i := table; i < rows; i += 4 {
			cur[i] = rowState{}
			for _, c := range cols {
				v := fmt.Sprintf("%s-%d-t%d", c, i, ts)
				if err := s.Put(kv.BaseKey(rowKey(i), []byte(c)), []byte(v), ts); err != nil {
					t.Fatal(err)
				}
				cur[i][c] = v
			}
			owners[i] = append(owners[i], table)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		snapshot(ts)
	}
	ts++
	for i := 0; i < rows; i += 8 {
		v := fmt.Sprintf("price-%d-t%d", i, ts)
		if err := s.Put(kv.BaseKey(rowKey(i), []byte("price")), []byte(v), ts); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(kv.BaseKey(rowKey(i), []byte("qty")), ts); err != nil {
			t.Fatal(err)
		}
		cur[i]["price"] = v
		delete(cur[i], "qty")
		owners[i] = append(owners[i], 4)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snapshot(ts)
	if n := s.TableCount(); n != 5 {
		t.Fatalf("TableCount = %d, want 5", n)
	}
	s.mu.RLock()
	tables := make([]*tableHandle, len(s.tables))
	copy(tables, s.tables)
	s.mu.RUnlock()
	// s.tables is newest first: flush j is tables[4-j].
	tableOf := func(j int) *tableHandle { return tables[len(tables)-1-j] }

	falseOpens, checks := 0, 0
	for i := 0; i < rows; i++ {
		prefix := kv.RowPrefix(rowKey(i))
		fs.take()
		got, err := s.Scan(prefix, kv.PrefixSuccessor(prefix), kv.MaxTimestamp, 0)
		if err != nil {
			t.Fatal(err)
		}
		reads := fs.take()
		held := map[int]bool{}
		for _, j := range owners[i] {
			held[j] = true
			if reads[tableOf(j).r.Name()] == 0 {
				t.Errorf("row %d: no read from table %d, which holds it", i, j)
			}
		}
		for j := 0; j < len(tables); j++ {
			if held[j] {
				continue
			}
			checks++
			if reads[tableOf(j).r.Name()] > 0 {
				if !tableOf(j).r.MayContainPrefix(prefix) {
					t.Errorf("row %d: table %d was read though its filter rejects the row", i, j)
				}
				falseOpens++
			}
		}
		checkRow(t, i, got, cur[i])
	}
	if falseOpens*20 > checks {
		t.Fatalf("%d of %d tables without the row were read", falseOpens, checks)
	}

	// As of every timestamp: the scan matches the model and per-column Get.
	for asOf, state := range model {
		for i := 0; i < rows; i++ {
			prefix := kv.RowPrefix(rowKey(i))
			got, err := s.Scan(prefix, kv.PrefixSuccessor(prefix), asOf, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkRow(t, i, got, state[i])
			for _, c := range cols {
				cell, ok, err := s.Get(kv.BaseKey(rowKey(i), []byte(c)), asOf)
				if err != nil {
					t.Fatal(err)
				}
				want, exists := state[i][c]
				if ok != exists || (ok && string(cell.Value) != want) {
					t.Errorf("Get(row %d, %s, ts %d) = (%q, %v), want (%q, %v)", i, c, asOf, cell.Value, ok, want, exists)
				}
			}
		}
	}
}

// checkRow compares one row scan's cells with the row's modelled columns.
func checkRow(t *testing.T, row int, got []ScanResult, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("row %d: scan returned %d cells, want %d", row, len(got), len(want))
		return
	}
	for _, res := range got {
		_, col, err := kv.SplitBaseKey(res.Key)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[string(col)]; !ok || !bytes.Equal(res.Value, []byte(w)) {
			t.Errorf("row %d: column %s = %q, want %q (present %v)", row, col, res.Value, w, ok)
		}
	}
}

// TestPartScanRacesFlushAndCompaction races MultiScan batches of one-part
// ranges (the table skip's only customer) plus a range across every row
// against flushes and background compactions that keep replacing the
// tables the skip consults and the batch's snapshot pins. Each round
// rewrites a quarter of the rows, so most tables lack most rows. Readers
// scan every row at the newest timestamp and must see, in each row's own
// range and in the spanning one, for every row already written when the
// batch began, both columns at a value no older than that write: a table
// skipped wrongly shows as a missing or stale row. (Reading as of the
// published timestamp instead would also trip the scan path's missing
// trimmed-history check, which fails the same way with the skip disabled.)
func TestPartScanRacesFlushAndCompaction(t *testing.T) {
	s, err := Open(Options{
		FS:               vfs.NewMemFS(),
		Dir:              "ps",
		CompactionFanIn:  2,
		DisableScrub:     true,
		DisableAutoFlush: true, // flushes are explicit below; compactions are not
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rows = 16
	const rounds = 120
	cols := []string{"a", "b"}
	rowKey := func(i int) []byte { return []byte(fmt.Sprintf("r%02d", i)) }
	ranges := []ScanRange{{Start: kv.RowPrefix(rowKey(0))}} // every row
	for i := 0; i < rows; i++ {
		prefix := kv.RowPrefix(rowKey(i))
		ranges = append(ranges, ScanRange{Start: prefix, End: kv.PrefixSuccessor(prefix)})
	}
	var mu sync.Mutex
	written := map[int]int{} // row → round of its last completed write

	// check reports whether the cells of one row, read no earlier than its
	// write in round floor, are both columns at a value that new or newer.
	check := func(i, floor int, got []ScanResult) bool {
		if len(got) != len(cols) {
			t.Errorf("row %d written in round %d: %d cells, want %d", i, floor, len(got), len(cols))
			return false
		}
		for _, res := range got {
			var round int
			if _, err := fmt.Sscanf(string(res.Value), "v%d", &round); err != nil || round < floor || round%4 != i%4 {
				t.Errorf("row %d written in round %d: value %q", i, floor, res.Value)
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				floors := maps.Clone(written)
				mu.Unlock()
				got, err := s.MultiScan(ranges, kv.MaxTimestamp, 0)
				if err != nil {
					t.Errorf("MultiScan: %v", err)
					return
				}
				byRow := map[string][]ScanResult{}
				for _, res := range got[0] {
					row, _, _ := kv.SplitBaseKey(res.Key)
					byRow[string(row)] = append(byRow[string(row)], res)
				}
				for i := 0; i < rows; i++ {
					floor, ok := floors[i]
					if !ok {
						continue // a first write may be landing
					}
					if !check(i, floor, got[1+i]) || !check(i, floor, byRow[string(rowKey(i))]) {
						return
					}
				}
			}
		}()
	}

	for round := 1; round <= rounds; round++ {
		ts := kv.Timestamp(round)
		for i := round % 4; i < rows; i += 4 {
			v := []byte(fmt.Sprintf("v%d", round))
			for _, c := range cols {
				if err := s.Put(kv.BaseKey(rowKey(i), []byte(c)), v, ts); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			written[i] = round
			mu.Unlock()
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	s.WaitCompactions()
	if s.Stats().Compactions == 0 {
		t.Error("no compaction round ran during the scans")
	}
}
