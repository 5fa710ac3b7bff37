package cluster

import (
	"errors"
	"testing"
	"time"

	"diffindex/internal/kv"
)

func TestAccessorsAndCloseRegion(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Master.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if !c.Master.HasTable("t") || c.Master.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	cl := NewClient(c, "client-x")
	if cl.Name() != "client-x" || cl.Cluster() != c {
		t.Error("client accessors wrong")
	}
	ri, err := c.Master.Locate("t", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	server := c.Server(ri.Server)
	if server.ID() != ri.Server {
		t.Error("server ID wrong")
	}
	infos := server.Regions()
	found := false
	for _, info := range infos {
		if info.ID == ri.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("Regions() = %v missing %s", infos, ri.ID)
	}

	// Region-local access used by coprocessors.
	if _, err := cl.Put("t", []byte("row"), map[string][]byte{"c": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	var region *Region
	c.servers[ri.Server].mu.RLock()
	region = c.servers[ri.Server].regions[ri.ID]
	c.servers[ri.Server].mu.RUnlock()
	if region.Store() == nil {
		t.Fatal("Region.Store nil")
	}
	cell, ok, err := region.Store().Get(kv.BaseKey([]byte("row"), []byte("c")), kv.MaxTimestamp)
	if err != nil || !ok || string(cell.Value) != "v" {
		t.Errorf("Store().Get = %+v ok=%v err=%v", cell, ok, err)
	}

	// Per-region flush through the server API.
	if err := server.Flush(ri.ID); err != nil {
		t.Fatal(err)
	}
	if err := server.Flush("ghost"); !errors.Is(err, ErrRegionNotFound) {
		t.Errorf("Flush of unknown region: %v", err)
	}

	// CloseRegion removes the region from service.
	if err := server.CloseRegion(ri.ID); err != nil {
		t.Fatal(err)
	}
	if err := server.CloseRegion(ri.ID); !errors.Is(err, ErrRegionNotFound) {
		t.Errorf("double CloseRegion: %v", err)
	}
	if _, err := server.MultiGet(ri.ID, [][]byte{[]byte("k")}, kv.MaxTimestamp); !errors.Is(err, ErrRegionNotFound) {
		t.Errorf("MultiGet on closed region: %v", err)
	}
}

func TestWaitFor(t *testing.T) {
	n := 0
	ok := WaitFor(time.Second, func() bool {
		n++
		return n >= 3
	})
	if !ok || n < 3 {
		t.Errorf("WaitFor ok=%v n=%d", ok, n)
	}
	if WaitFor(5*time.Millisecond, func() bool { return false }) {
		t.Error("WaitFor(false) returned true")
	}
}
