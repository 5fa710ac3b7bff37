package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
	"diffindex/internal/vfs"
)

// TestOpenRegionWaitsForOpenInFlight: an OpenRegion that finds the same
// region already opening must return that open's result. Returning nil at
// once told the caller the region was placed while the open could still
// fail, and the region was left routed to a server that never hosted it.
func TestOpenRegionWaitsForOpenInFlight(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.NewMemFS())
	c := New(Config{Servers: 1, BaseFS: fault})
	t.Cleanup(func() { c.Close() })
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(c, "cl").Put("t", []byte("k"), map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ri, _ := c.Master.Locate("t", []byte("k"))
	s := c.Server(ri.Server)
	if err := s.CloseRegion(ri.ID); err != nil {
		t.Fatal(err)
	}

	// Every read of the region's files stalls, then fails.
	fault.Arm(vfs.FaultConfig{Seed: 1, ReadErrProb: 1, SpikeProb: 1,
		SpikeLatency: 20 * time.Millisecond, PathSubstr: regionDir(ri) + "/"})
	first := make(chan error, 1)
	go func() { first <- s.OpenRegion(ri) }()
	if !WaitFor(time.Second, func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		_, ok := s.opening[ri.ID]
		return ok
	}) {
		t.Fatal("first open never started")
	}
	second := s.OpenRegion(ri)
	if err := <-first; err == nil || second == nil {
		t.Fatalf("opens of an unreadable region returned %v and %v, want two errors", err, second)
	}
	if s.hostsUnfrozen(ri.ID) {
		t.Fatal("server hosts a region whose open failed")
	}
}

func newTestCluster(t testing.TB, servers int) *Cluster {
	t.Helper()
	c := New(Config{Servers: servers})
	t.Cleanup(func() { c.Close() })
	return c
}

func splits(keys ...string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

func TestCreateTableAndRegionAssignment(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("items", splits("g", "p")); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.CreateTable("items", nil); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := c.Master.CreateTable("bad", splits("b", "a")); err == nil {
		t.Error("unsorted splits accepted")
	}
	regions, err := c.Master.RegionsOf("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("got %d regions", len(regions))
	}
	// Regions must cover the key space contiguously.
	if regions[0].Start != nil || regions[2].End != nil {
		t.Error("outer bounds must be open")
	}
	if !bytes.Equal(regions[0].End, []byte("g")) || !bytes.Equal(regions[1].Start, []byte("g")) {
		t.Error("regions not contiguous")
	}
	// Spread across servers (round robin with 3 servers and 3 regions).
	seen := map[string]bool{}
	for _, ri := range regions {
		seen[ri.Server] = true
	}
	if len(seen) != 3 {
		t.Errorf("regions assigned to %d servers, want 3", len(seen))
	}
	if _, err := c.Master.RegionsOf("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("missing table: %v", err)
	}
}

func TestLocate(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("tbl", splits("m")); err != nil {
		t.Fatal(err)
	}
	lo, err := c.Master.Locate("tbl", []byte("apple"))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Start != nil || !bytes.Equal(lo.End, []byte("m")) {
		t.Errorf("Locate(apple) = %v", lo)
	}
	hi, err := c.Master.Locate("tbl", []byte("zebra"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hi.Start, []byte("m")) || hi.End != nil {
		t.Errorf("Locate(zebra) = %v", hi)
	}
	// Boundary key belongs to the upper region.
	b, _ := c.Master.Locate("tbl", []byte("m"))
	if !bytes.Equal(b.Start, []byte("m")) {
		t.Errorf("Locate(m) = %v", b)
	}
}

func TestPutGetDeleteThroughClient(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("users", splits("h", "q")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "client1")

	ts, err := cl.Put("users", []byte("alice"), map[string][]byte{"name": []byte("Alice"), "city": []byte("NY")})
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 0 {
		t.Errorf("ts = %d", ts)
	}
	val, gotTs, ok, err := cl.Get("users", []byte("alice"), "name")
	if err != nil || !ok || string(val) != "Alice" || gotTs != ts {
		t.Fatalf("Get = %q ts=%d ok=%v err=%v", val, gotTs, ok, err)
	}
	row, err := cl.GetRow("users", []byte("alice"))
	if err != nil || len(row) != 2 || string(row["city"]) != "NY" {
		t.Fatalf("GetRow = %v err=%v", row, err)
	}

	// Overwrite gets a newer timestamp.
	ts2, _ := cl.Put("users", []byte("alice"), map[string][]byte{"city": []byte("SF")})
	if ts2 <= ts {
		t.Errorf("ts2=%d not newer than ts=%d", ts2, ts)
	}
	val, _, _, _ = cl.Get("users", []byte("alice"), "city")
	if string(val) != "SF" {
		t.Errorf("city = %q", val)
	}

	// Delete one column, then the whole row.
	if _, err := cl.Delete("users", []byte("alice"), []string{"city"}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := cl.Get("users", []byte("alice"), "city"); ok {
		t.Error("deleted column visible")
	}
	if _, _, ok, _ := cl.Get("users", []byte("alice"), "name"); !ok {
		t.Error("surviving column lost")
	}
	if _, err := cl.Delete("users", []byte("alice"), nil); err != nil {
		t.Fatal(err)
	}
	if row, _ := cl.GetRow("users", []byte("alice")); row != nil {
		t.Errorf("row visible after full delete: %v", row)
	}
	// Missing rows.
	if _, _, ok, _ := cl.Get("users", []byte("nobody"), "name"); ok {
		t.Error("missing row found")
	}
}

func TestPutWithOldReturnsPreviousValues(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")

	_, old, err := cl.Mutate("t", []byte("r"), Mutation{Put: map[string][]byte{"a": []byte("1")}}, true)
	if err != nil || len(old) != 0 {
		t.Fatalf("first put old=%v err=%v", old, err)
	}
	_, old, err = cl.Mutate("t", []byte("r"), Mutation{Put: map[string][]byte{"a": []byte("2"), "b": []byte("x")}}, true)
	if err != nil || string(old["a"]) != "1" {
		t.Fatalf("second put old=%v err=%v", old, err)
	}
}

func TestScanAcrossRegions(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("k10", "k20")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 30; i++ {
		row := []byte(fmt.Sprintf("k%02d", i))
		if _, err := cl.Put("t", row, map[string][]byte{"v": []byte(fmt.Sprintf("%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := cl.Scan("t", []byte("k05"), []byte("k25"), kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("Scan returned %d rows, want 20", len(rows))
	}
	if string(rows[0].Key) != "k05" || string(rows[19].Key) != "k24" {
		t.Errorf("scan bounds wrong: first=%s last=%s", rows[0].Key, rows[19].Key)
	}
	// Rows must arrive in order across region boundaries.
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1].Key, rows[i].Key) >= 0 {
			t.Fatal("scan out of order")
		}
	}
	// Limit stops early.
	rows, _ = cl.Scan("t", nil, nil, kv.MaxTimestamp, 7)
	if len(rows) != 7 {
		t.Errorf("limited scan returned %d", len(rows))
	}
	// Full scan.
	rows, _ = cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if len(rows) != 30 {
		t.Errorf("full scan returned %d", len(rows))
	}
}

func TestRawOpsOnIndexStyleTable(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("idx", splits(string(kv.IndexValuePrefix([]byte("m"))))); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")

	for _, v := range []string{"apple", "mango", "zebra"} {
		key := kv.IndexKey([]byte(v), []byte("row-"+v))
		if err := cl.MultiApply("idx", []kv.Cell{{Key: key, Ts: 5, Kind: kv.KindPut}}); err != nil {
			t.Fatal(err)
		}
	}
	// Exact-match scan for one value.
	prefix := kv.IndexValuePrefix([]byte("mango"))
	res, err := rawScan(cl, "idx", prefix, kv.PrefixSuccessor(prefix), kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("exact-match scan returned %d entries", len(res))
	}
	_, row, _ := kv.SplitIndexKey(res[0].Key)
	if string(row) != "row-mango" {
		t.Errorf("decoded row = %q", row)
	}
	// Cross-region range scan: values in [a, zz] ("zebra" > "z", so the
	// upper bound must reach past it).
	lo, hi := kv.IndexValueRange([]byte("a"), []byte("zz"))
	res, err = rawScan(cl, "idx", lo, hi, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("range scan returned %d entries, want 3", len(res))
	}
	// The inclusive range [a, z] excludes "zebra".
	lo, hi = kv.IndexValueRange([]byte("a"), []byte("z"))
	res, err = rawScan(cl, "idx", lo, hi, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("range scan [a,z] returned %d entries, want 2", len(res))
	}
	// A point read with explicit timestamp visibility.
	key := kv.IndexKey([]byte("apple"), []byte("row-apple"))
	spec := []GetSpec{{Key: key}}
	if out, err := cl.MultiGet("idx", spec, 4); err != nil || out[0].Found {
		t.Errorf("entry visible before its timestamp (err %v)", err)
	}
	if out, err := cl.MultiGet("idx", spec, 5); err != nil || !out[0].Found {
		t.Errorf("entry invisible at its timestamp (err %v)", err)
	}
}

func TestCrashRecoveryPreservesData(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("j", "s")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	for i := 0; i < 60; i++ {
		row := []byte(fmt.Sprintf("key%02d", i))
		if _, err := cl.Put("t", row, map[string][]byte{"v": []byte(fmt.Sprintf("%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Find the server hosting the first region and kill it without any
	// flush: all its memtable data must come back from the WAL.
	ri, _ := c.Master.Locate("t", []byte("key00"))
	victim := ri.Server
	if err := c.Master.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	ri2, _ := c.Master.Locate("t", []byte("key00"))
	if ri2.Server == victim {
		t.Fatal("region not reassigned")
	}

	for i := 0; i < 60; i++ {
		row := []byte(fmt.Sprintf("key%02d", i))
		val, _, ok, err := cl.Get("t", row, "v")
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(val) != fmt.Sprintf("%d", i) {
			t.Errorf("row %s lost after crash: %q ok=%v", row, val, ok)
		}
	}
	// Writes continue to work after recovery, with monotonic timestamps.
	ts1, _, _, _ := cl.Get("t", []byte("key00"), "v")
	_ = ts1
	ts2, err := cl.Put("t", []byte("key00"), map[string][]byte{"v": []byte("post-crash")})
	if err != nil {
		t.Fatal(err)
	}
	val, ts3, _, _ := cl.Get("t", []byte("key00"), "v")
	if string(val) != "post-crash" || ts3 != ts2 {
		t.Errorf("post-crash write lost: %q ts=%d want ts=%d", val, ts3, ts2)
	}
}

func TestCrashRecoveryAfterFlush(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")
	cl.Put("t", []byte("flushed"), map[string][]byte{"v": []byte("1")})
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cl.Put("t", []byte("memonly"), map[string][]byte{"v": []byte("2")})

	ri, _ := c.Master.Locate("t", []byte("flushed"))
	if err := c.Master.CrashServer(ri.Server); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"flushed", "memonly"} {
		if _, _, ok, err := cl.Get("t", []byte(row), "v"); err != nil || !ok {
			t.Errorf("row %s lost (ok=%v err=%v)", row, ok, err)
		}
	}
}

func TestCrashedServerRejectsOps(t *testing.T) {
	c := newTestCluster(t, 2)
	c.Master.CreateTable("t", nil)
	ri, _ := c.Master.Locate("t", []byte("k"))
	server := c.Server(ri.Server)
	c.Master.CrashServer(ri.Server)

	if _, _, err := server.MutateRow(ri.ID, []byte("k"), Mutation{Put: map[string][]byte{"a": nil}}, false, nil); !errors.Is(err, ErrServerDown) {
		t.Errorf("MutateRow on crashed server: %v", err)
	}
	if _, err := server.MultiGet(ri.ID, [][]byte{[]byte("k")}, kv.MaxTimestamp); !errors.Is(err, ErrServerDown) {
		t.Errorf("MultiGet on crashed server: %v", err)
	}
	if err := server.OpenRegion(ri); !errors.Is(err, ErrServerDown) {
		t.Errorf("OpenRegion on crashed server: %v", err)
	}
}

func TestStaleClientCacheRetries(t *testing.T) {
	c := newTestCluster(t, 3)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")
	// Prime the cache.
	if _, err := cl.Put("t", []byte("k"), map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	ri, _ := c.Master.Locate("t", []byte("k"))
	if err := c.Master.CrashServer(ri.Server); err != nil {
		t.Fatal(err)
	}
	// The client's cached route is stale; the put must transparently retry.
	if _, err := cl.Put("t", []byte("k"), map[string][]byte{"v": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	val, _, _, err := cl.Get("t", []byte("k"), "v")
	if err != nil || string(val) != "2" {
		t.Errorf("Get after failover = %q err=%v", val, err)
	}
}

// recordingCoprocessor records hook invocations for verification.
type recordingCoprocessor struct {
	mu          sync.Mutex
	puts        []string
	deletes     []string
	replays     []string
	preFlush    int
	postCompact int
}

func (r *recordingCoprocessor) PostCompact(ctx RegionCtx, gc lsm.CompactionGC) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.postCompact++
}

func (r *recordingCoprocessor) PostMutate(ctx RegionCtx, row []byte, m Mutation, ts kv.Timestamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Put != nil {
		r.puts = append(r.puts, string(row))
	} else {
		r.deletes = append(r.deletes, string(row))
	}
}
func (r *recordingCoprocessor) PreFlush(ctx RegionCtx) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.preFlush++
	return nil
}
func (r *recordingCoprocessor) OnRegionClose(ctx RegionCtx) {}
func (r *recordingCoprocessor) OnReplay(ctx RegionCtx, c kv.Cell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row, _, err := kv.SplitBaseKey(c.Key)
	if err == nil {
		r.replays = append(r.replays, string(row))
	}
}

func TestCoprocessorHooks(t *testing.T) {
	c := newTestCluster(t, 2)
	rec := &recordingCoprocessor{}
	c.RegisterCoprocessor("t", rec)
	c.Master.CreateTable("t", nil)
	cl := NewClient(c, "cl")

	cl.Put("t", []byte("r1"), map[string][]byte{"a": []byte("1")})
	cl.Put("t", []byte("r2"), map[string][]byte{"a": []byte("2")})
	cl.Delete("t", []byte("r1"), []string{"a"})

	rec.mu.Lock()
	puts, dels := len(rec.puts), len(rec.deletes)
	rec.mu.Unlock()
	if puts != 2 || dels != 1 {
		t.Errorf("observer saw %d puts, %d deletes", puts, dels)
	}

	// PreFlush fires on flush.
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	pf := rec.preFlush
	rec.mu.Unlock()
	if pf == 0 {
		t.Error("PreFlush hook never fired")
	}

	// Unflushed writes replay through OnReplay after a crash.
	cl.Put("t", []byte("r3"), map[string][]byte{"a": []byte("3")})
	ri, _ := c.Master.Locate("t", []byte("r3"))
	if err := c.Master.CrashServer(ri.Server); err != nil {
		t.Fatal(err)
	}
	// OnReplay dispatch runs in the background after the region reopens.
	if !WaitFor(2*time.Second, func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		for _, r := range rec.replays {
			if r == "r3" {
				return true
			}
		}
		return false
	}) {
		t.Error("unflushed row r3 not replayed")
	}
	rec.mu.Lock()
	replays := append([]string(nil), rec.replays...)
	rec.mu.Unlock()
	for _, r := range replays {
		if r == "r1" || r == "r2" {
			t.Errorf("flushed row %s replayed", r)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.Master.CreateTable("t", splits("c", "f", "l", "r")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const clients, per = 6, 150
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := NewClient(c, fmt.Sprintf("client%d", ci))
			for i := 0; i < per; i++ {
				row := []byte(fmt.Sprintf("%c%d-%d", 'a'+byte(i%26), ci, i))
				if _, err := cl.Put("t", row, map[string][]byte{"v": []byte("x")}); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if _, _, _, err := cl.Get("t", row, "v"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	cl := NewClient(c, "verifier")
	rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != clients*per {
		t.Errorf("scan found %d rows, want %d", len(rows), clients*per)
	}
}

func TestRegionInfoPredicates(t *testing.T) {
	ri := RegionInfo{Start: []byte("g"), End: []byte("p")}
	if ri.Contains([]byte("f")) || !ri.Contains([]byte("g")) || !ri.Contains([]byte("o")) || ri.Contains([]byte("p")) {
		t.Error("Contains boundary behavior wrong")
	}
	open := RegionInfo{}
	if !open.Contains([]byte("anything")) || !open.Contains([]byte{}) {
		t.Error("open region must contain everything")
	}
	if !ri.Overlaps(nil, nil) || !ri.Overlaps([]byte("a"), []byte("h")) || ri.Overlaps([]byte("p"), nil) || ri.Overlaps(nil, []byte("g")) {
		t.Error("Overlaps boundary behavior wrong")
	}
	if ri.String() == "" {
		t.Error("String must render")
	}
}
