package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hammer issues n puts to rows strictly inside [prefix0, prefix9...] so all
// land in one known region, and returns the rows written.
func hammer(t *testing.T, cl *Client, table, prefix string, n int) [][]byte {
	t.Helper()
	rows := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		row := []byte(fmt.Sprintf("%s%04d", prefix, i))
		if _, err := cl.Put(table, row, map[string][]byte{"v": []byte(prefix)}); err != nil {
			t.Fatalf("put %s: %v", row, err)
		}
		rows = append(rows, row)
	}
	return rows
}

// serverOf resolves which server hosts the region containing key.
func serverOf(t *testing.T, c *Cluster, table string, key []byte) (string, string) {
	t.Helper()
	ri, err := c.Master.Locate(table, key)
	if err != nil {
		t.Fatal(err)
	}
	return ri.Server, ri.ID
}

// TestBalanceOnceMovesHotRegion: the balancer migrates the region that best
// evens out the gap between the most- and least-loaded server — here the
// smaller of the donor's two loaded regions, since moving the hottest one
// would overshoot — and leaves a gap below minMoveOps alone even when the
// donor carries more than hotspotRatio times the receiver's load.
func TestBalanceOnceMovesHotRegion(t *testing.T) {
	c := newTestCluster(t, 2)
	// 4 regions round-robin over 2 servers: each server hosts two.
	if err := c.Master.CreateTable("tbl", splits("g", "p", "w")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "load")

	// Pick two regions on the same server (the donor) and one on the other.
	regions, _ := c.Master.RegionsOf("tbl")
	byServer := map[string][]RegionInfo{}
	for _, ri := range regions {
		byServer[ri.Server] = append(byServer[ri.Server], ri)
	}
	if len(byServer) != 2 {
		t.Fatalf("regions on %d servers, want 2", len(byServer))
	}
	prefixFor := func(ri RegionInfo) string {
		if ri.Start == nil {
			return "a"
		}
		return string(ri.Start) + "a"
	}
	var donor, receiver string
	for id, rs := range byServer {
		if len(rs) == 2 {
			donor = id
		} else if len(rs) == 1 {
			t.Fatalf("uneven assignment: server %s hosts %d regions", id, len(rs))
		}
	}
	for id := range byServer {
		if id != donor {
			receiver = id
		}
	}
	hot, warm := byServer[donor][0], byServer[donor][1]
	hammer(t, cl, "tbl", prefixFor(hot), 150)
	hammer(t, cl, "tbl", prefixFor(warm), 50)
	coldRows := hammer(t, cl, "tbl", prefixFor(byServer[receiver][0]), 10)

	rep := c.Master.BalanceOnce()
	if len(rep.Moves) != 1 {
		t.Fatalf("moves = %v, want exactly one", rep.Moves)
	}
	mv := rep.Moves[0]
	// gap ≈ 200−10; moving the 50-op region leaves residual ≈ 90, beating
	// the 150-op region's ≈ 110.
	if mv.Region != warm.ID || mv.From != donor || mv.To != receiver {
		t.Fatalf("move = %+v, want %s from %s to %s (loads %v)", mv, warm.ID, donor, receiver, rep.Loads)
	}
	if got, _ := serverOf(t, c, "tbl", []byte(prefixFor(warm))); got != receiver {
		t.Fatalf("metadata still places %s on %s", warm.ID, got)
	}
	// The moved region serves its data on the new host.
	v, _, ok, err := cl.Get("tbl", []byte(prefixFor(warm)+"0007"), "v")
	if err != nil || !ok || string(v) != prefixFor(warm) {
		t.Fatalf("read after move = %q ok=%v err=%v", v, ok, err)
	}
	_ = coldRows

	// A balanced cluster makes no further moves.
	if rep2 := c.Master.BalanceOnce(); len(rep2.Moves) != 0 {
		t.Fatalf("second round moved %v on a quiet cluster", rep2.Moves)
	}

	// A gap of 10 ops is noise: 14 > 2×4 passes the ratio, but 10 < 16.
	hammer(t, cl, "tbl", prefixFor(hot), 14)
	hammer(t, cl, "tbl", prefixFor(byServer[receiver][0]), 4)
	rep3 := c.Master.BalanceOnce()
	if rep3.Loads[donor] != 14 || rep3.Loads[receiver] != 4 {
		t.Fatalf("loads = %v, want %s:14 %s:4", rep3.Loads, donor, receiver)
	}
	if len(rep3.Moves) != 0 {
		t.Fatalf("moved %v on a %d-op gap", rep3.Moves, rep3.Loads[donor]-rep3.Loads[receiver])
	}
}

// TestMoveRegionPrimitive: explicit moves relocate data and metadata; no-op
// and error cases are reported as such.
func TestMoveRegionPrimitive(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("t", splits("m")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	if _, err := cl.Put("t", []byte("apple"), map[string][]byte{"v": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	from, regionID := serverOf(t, c, "t", []byte("apple"))
	to := "rs1"
	if from == "rs1" {
		to = "rs2"
	}

	moved, err := c.Master.MoveRegion(regionID, to)
	if err != nil || !moved {
		t.Fatalf("MoveRegion = %v, %v", moved, err)
	}
	if got, _ := serverOf(t, c, "t", []byte("apple")); got != to {
		t.Fatalf("region on %s after move to %s", got, to)
	}
	if v, _, ok, err := cl.Get("t", []byte("apple"), "v"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("read after move = %q ok=%v err=%v", v, ok, err)
	}
	// Moving to the current host is a no-op, not an error.
	if moved, err := c.Master.MoveRegion(regionID, to); err != nil || moved {
		t.Fatalf("same-host move = %v, %v", moved, err)
	}
	if _, err := c.Master.MoveRegion("nope", to); err == nil {
		t.Fatal("unknown region accepted")
	}
	if _, err := c.Master.MoveRegion(regionID, "rs99"); err == nil {
		t.Fatal("unknown server accepted")
	}
}

// TestAddServerExpansion: a new server joins empty, is assignable, and
// receives regions via moves and new tables.
func TestAddServerExpansion(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("t", splits("m")); err != nil {
		t.Fatal(err)
	}
	id := c.AddServer()
	if id != "rs3" {
		t.Fatalf("AddServer = %s, want rs3 (creation order continues)", id)
	}
	if c.AddServer() != "rs4" {
		t.Fatal("second AddServer did not continue the sequence")
	}
	found := false
	for _, s := range c.ServerIDs() {
		if s == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("ServerIDs %v missing %s", c.ServerIDs(), id)
	}

	cl := NewClient(c, "cl")
	if _, err := cl.Put("t", []byte("zebra"), map[string][]byte{"v": []byte("z")}); err != nil {
		t.Fatal(err)
	}
	_, regionID := serverOf(t, c, "t", []byte("zebra"))
	if moved, err := c.Master.MoveRegion(regionID, id); err != nil || !moved {
		t.Fatalf("move to new server = %v, %v", moved, err)
	}
	if v, _, ok, err := cl.Get("t", []byte("zebra"), "v"); err != nil || !ok || string(v) != "z" {
		t.Fatalf("read from new server = %q ok=%v err=%v", v, ok, err)
	}
	// New tables spread over the grown cluster.
	if err := c.Master.CreateTable("wide", splits("b", "d", "f", "h", "j", "l")); err != nil {
		t.Fatal(err)
	}
	regions, _ := c.Master.RegionsOf("wide")
	onNew := 0
	for _, ri := range regions {
		if ri.Server == "rs3" || ri.Server == "rs4" {
			onNew++
		}
	}
	if onNew == 0 {
		t.Fatal("no region of a 7-region table assigned to the added servers")
	}
}

// TestDecommissionServer: drain-and-handoff empties the server, its data
// stays readable, and the server is retired for good.
func TestDecommissionServer(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("h", "q")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "cl")
	var rows [][]byte
	for _, prefix := range []string{"a", "k", "s"} {
		rows = append(rows, hammer(t, cl, "t", prefix, 20)...)
	}

	if err := c.Master.DecommissionServer("rs2"); err != nil {
		t.Fatal(err)
	}
	regions, _ := c.Master.RegionsOf("t")
	for _, ri := range regions {
		if ri.Server == "rs2" {
			t.Fatalf("region %s still on decommissioned server", ri.ID)
		}
	}
	for _, id := range c.ServerIDs() {
		if id == "rs2" {
			t.Fatal("retired server still listed")
		}
	}
	for _, row := range rows {
		if _, _, ok, err := cl.Get("t", row, "v"); err != nil || !ok {
			t.Fatalf("row %s unreadable after decommission: ok=%v err=%v", row, ok, err)
		}
	}
	if err := c.Master.RestartServer("rs2"); err == nil {
		t.Fatal("decommissioned server restarted")
	}
	if err := c.Master.DecommissionServer("rs2"); err == nil {
		t.Fatal("double decommission accepted")
	}
	// Removing down to a single server is allowed; removing the last one is
	// not.
	if err := c.Master.DecommissionServer("rs3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.DecommissionServer("rs1"); err == nil {
		t.Fatal("decommissioned the last server")
	}
	for _, row := range rows {
		if _, _, ok, err := cl.Get("t", row, "v"); err != nil || !ok {
			t.Fatalf("row %s unreadable on the last server: ok=%v err=%v", row, ok, err)
		}
	}
}

// TestBalancerRacesTopologyChanges runs the continuous balancer at full
// tilt against concurrent splits, merges, explicit moves, flush+compaction
// rounds and live traffic — the -race gate for the elastic machinery. The
// balancer may find no hotspot worth a move in a 1 ms round, so a goroutine
// of its own moves random regions to random servers. Afterwards the region
// map must still tile the key space and every write must be readable.
func TestBalancerRacesTopologyChanges(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := c.Master.CreateTable("t", splits("k200", "k400", "k600", "k800")); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(c, "writer")
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 0; i < 1000; i += 10 {
		if _, err := cl.Put("t", key(i), map[string][]byte{"v": key(i)}); err != nil {
			t.Fatal(err)
		}
	}

	c.Master.StartBalancer(time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Live traffic: rewrite and read back keys the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		reader := NewClient(c, "reader")
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(100) * 10
			if _, err := cl.Put("t", key(i), map[string][]byte{"v": key(i)}); err != nil {
				t.Errorf("put under balancing: %v", err)
				return
			}
			if _, _, ok, err := reader.Get("t", key(i), "v"); err != nil || !ok {
				t.Errorf("get under balancing: ok=%v err=%v", ok, err)
				return
			}
		}
	}()
	// Splits: repeatedly split whichever region is widest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			regions, err := c.Master.RegionsOf("t")
			if err != nil || len(regions) == 0 {
				continue
			}
			ri := regions[rng.Intn(len(regions))]
			mid := key(rng.Intn(100) * 10)
			if !ri.Contains(mid) || (ri.Start != nil && bytes.Equal(mid, ri.Start)) {
				continue
			}
			_ = c.Master.SplitRegion(ri.ID, mid) // benign failures: raced topology
		}
	}()
	// Merges: repeatedly merge a random adjacent pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			regions, err := c.Master.RegionsOf("t")
			if err != nil || len(regions) < 3 {
				continue
			}
			i := rng.Intn(len(regions) - 1)
			_ = c.Master.MergeRegions(regions[i].ID, regions[i+1].ID)
		}
	}()
	// Moves: repeatedly move a random region to a random server.
	var moves atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4))
		servers := c.ServerIDs()
		for {
			select {
			case <-stop:
				return
			default:
			}
			regions, err := c.Master.RegionsOf("t")
			if err != nil || len(regions) == 0 {
				continue
			}
			ri := regions[rng.Intn(len(regions))]
			// Benign failures and no-ops: raced topology, or already there.
			if ok, _ := c.Master.MoveRegion(ri.ID, servers[rng.Intn(len(servers))]); ok {
				moves.Add(1)
			}
		}
	}()
	// Flush + compaction churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.FlushAll()
			c.WaitCompactions()
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Master.StopBalancer()
	if moves.Load() == 0 {
		t.Fatal("no explicit move landed during the storm")
	}

	// Invariants: every region is served where the metadata says, and the
	// region map tiles the key space with no gaps/overlaps.
	if un := c.Master.Unserved(); len(un) != 0 {
		t.Fatalf("unserved regions after storm: %v", un)
	}
	regions, err := c.Master.RegionsOf("t")
	if err != nil {
		t.Fatal(err)
	}
	if regions[0].Start != nil || regions[len(regions)-1].End != nil {
		t.Fatalf("outer bounds not open: %v", regions)
	}
	for i := 1; i < len(regions); i++ {
		if !bytes.Equal(regions[i-1].End, regions[i].Start) {
			t.Fatalf("gap/overlap between %v and %v", regions[i-1], regions[i])
		}
	}
	// Every key written before the storm is still readable with its value.
	for i := 0; i < 1000; i += 10 {
		v, _, ok, err := cl.Get("t", key(i), "v")
		if err != nil || !ok || !bytes.Equal(v, key(i)) {
			t.Fatalf("key %s after storm: %q ok=%v err=%v", key(i), v, ok, err)
		}
	}
}
