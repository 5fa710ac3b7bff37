package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"diffindex/internal/kv"
)

// TestTopologyChurnProperty drives random puts, deletes, splits, merges,
// moves, crashes (some followed by a restart) and server add + decommission
// pairs against one table. It checks the table's contents against a model
// map after every topology change and at the end, and after every op that
// every region is served, unfrozen, by the server the metadata names. This
// is the integration invariant behind elasticity: topology changes never
// lose, duplicate or corrupt data, and never leave a range unserved. No
// balancer runs, so nothing could repair a stranded region behind the
// check.
func TestTopologyChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Servers: 4})
		defer c.Close()
		if err := c.Master.CreateTable("t", nil); err != nil {
			t.Log(err)
			return false
		}
		cl := NewClient(c, "churn")
		model := map[string]string{}

		verify := func(stage string) bool {
			rows, err := cl.Scan("t", nil, nil, kv.MaxTimestamp, 0)
			if err != nil {
				t.Logf("seed %d %s: scan: %v", seed, stage, err)
				return false
			}
			if len(rows) != len(model) {
				t.Logf("seed %d %s: %d rows, model has %d", seed, stage, len(rows), len(model))
				return false
			}
			for _, r := range rows {
				if model[string(r.Key)] != string(r.Cols["v"]) {
					t.Logf("seed %d %s: row %q = %q, model %q", seed, stage, r.Key, r.Cols["v"], model[string(r.Key)])
					return false
				}
			}
			return true
		}

		crashes := 0
		for op := 0; op < 120; op++ {
			if un := c.Master.Unserved(); len(un) != 0 {
				t.Logf("seed %d op %d: unserved regions %v", seed, op, un)
				return false
			}
			switch rng.Intn(15) {
			case 0: // split a random region at a random existing row
				if len(model) == 0 {
					continue
				}
				regions, _ := c.Master.RegionsOf("t")
				var keys []string
				for k := range model {
					keys = append(keys, k)
				}
				splitKey := []byte(keys[rng.Intn(len(keys))])
				for _, ri := range regions {
					if ri.Contains(splitKey) && (ri.Start == nil || string(ri.Start) != string(splitKey)) {
						if err := c.Master.SplitRegion(ri.ID, splitKey); err != nil {
							t.Logf("seed %d: split: %v", seed, err)
							return false
						}
						break
					}
				}
				if !verify("after split") {
					return false
				}
			case 1: // merge a random adjacent pair
				regions, _ := c.Master.RegionsOf("t")
				if len(regions) < 2 {
					continue
				}
				i := rng.Intn(len(regions) - 1)
				if err := c.Master.MergeRegions(regions[i].ID, regions[i+1].ID); err != nil {
					t.Logf("seed %d: merge: %v", seed, err)
					return false
				}
				if !verify("after merge") {
					return false
				}
			case 2: // crash a server (at most twice, keep 2 alive)
				if crashes < 2 && len(c.LiveServerIDs()) > 2 {
					victim := c.LiveServerIDs()[rng.Intn(len(c.LiveServerIDs()))]
					if err := c.Master.CrashServer(victim); err != nil {
						t.Logf("seed %d: crash: %v", seed, err)
						return false
					}
					crashes++
					if !verify("after crash") {
						return false
					}
				}
			case 4: // move a random region to a random live server
				regions, _ := c.Master.RegionsOf("t")
				live := c.LiveServerIDs()
				ri := regions[rng.Intn(len(regions))]
				if _, err := c.Master.MoveRegion(ri.ID, live[rng.Intn(len(live))]); err != nil {
					t.Logf("seed %d: move: %v", seed, err)
					return false
				}
				if !verify("after move") {
					return false
				}
			case 5: // crash a server and restart it (keep one other alive)
				if live := c.LiveServerIDs(); len(live) > 1 {
					victim := live[rng.Intn(len(live))]
					if err := c.Master.CrashServer(victim); err != nil {
						t.Logf("seed %d: crash: %v", seed, err)
						return false
					}
					if err := c.Master.RestartServer(victim); err != nil {
						t.Logf("seed %d: restart: %v", seed, err)
						return false
					}
					if !verify("after crash and restart") {
						return false
					}
				}
			case 6: // add a server, then decommission a random live one
				c.AddServer()
				live := c.LiveServerIDs()
				if err := c.Master.DecommissionServer(live[rng.Intn(len(live))]); err != nil {
					t.Logf("seed %d: decommission: %v", seed, err)
					return false
				}
				if !verify("after add and decommission") {
					return false
				}
			case 3: // delete
				if len(model) == 0 {
					continue
				}
				for k := range model {
					if _, err := cl.Delete("t", []byte(k), nil); err != nil {
						t.Logf("seed %d: delete: %v", seed, err)
						return false
					}
					delete(model, k)
					break
				}
			default: // put
				k := fmt.Sprintf("row%03d", rng.Intn(60))
				v := fmt.Sprintf("v%d", op)
				if _, err := cl.Put("t", []byte(k), map[string][]byte{"v": []byte(v)}); err != nil {
					t.Logf("seed %d: put: %v", seed, err)
					return false
				}
				model[k] = v
			}
		}
		if un := c.Master.Unserved(); len(un) != 0 {
			t.Logf("seed %d final: unserved regions %v", seed, un)
			return false
		}
		return verify("final")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
