package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Master is the management node (§2.2): it creates tables, assigns regions
// to region servers, and — standing in for ZooKeeper's failure detection and
// reassignment — recovers the regions of a crashed server onto live ones,
// where WAL replay restores their memtables (§5.3). Every placement change
// goes through one region-transition primitive (transition.go).
type Master struct {
	cluster *Cluster

	mu     sync.RWMutex
	tables map[string]*tableMeta
	rr     int // round-robin assignment cursor

	// topoMu serializes region-topology mutations: splits, merges, balancer
	// moves and decommissions. Crash and restart handling deliberately do
	// NOT take it — failure recovery must preempt a topology change that may
	// be stalled behind a fault window; a transition tolerates that
	// preemption by re-checking its claim under mu.
	topoMu sync.Mutex

	// Continuous balancer loop state (see balance.go).
	balMu   sync.Mutex
	balStop chan struct{}
	balWG   sync.WaitGroup
}

type tableMeta struct {
	name    string
	regions []*RegionInfo // sorted by Start
	// raw tables route by the store key itself (index tables); row tables
	// route by the row key decoded from composite store keys (base tables).
	// Region splitting needs this to route existing cells to child regions.
	raw    bool
	nextID int // counter behind every region ID of the table
}

// newRegionID mints the table's next region ID; m.mu must be held. IDs are
// never reused, so a failed transition's files cannot shadow a later one.
func (t *tableMeta) newRegionID() string {
	t.nextID++
	return fmt.Sprintf("%s.r%04d", t.name, t.nextID-1)
}

func newMaster(c *Cluster) *Master {
	return &Master{cluster: c, tables: make(map[string]*tableMeta)}
}

// CreateTable creates a row-keyed (base) table pre-split at the given
// routing keys into len(splits)+1 regions, assigned round-robin across live
// servers. Splits must be sorted and distinct.
func (m *Master) CreateTable(name string, splits [][]byte) error {
	return m.createTable(name, splits, false)
}

// CreateRawTable creates a table whose routing keys ARE its store keys —
// the layout of global index tables.
func (m *Master) CreateRawTable(name string, splits [][]byte) error {
	return m.createTable(name, splits, true)
}

func (m *Master) createTable(name string, splits [][]byte, raw bool) error {
	if name == "" {
		return fmt.Errorf("cluster: empty table name")
	}
	for i := 1; i < len(splits); i++ {
		if bytes.Compare(splits[i-1], splits[i]) >= 0 {
			return fmt.Errorf("cluster: splits must be sorted and distinct")
		}
	}
	m.mu.Lock()
	if _, ok := m.tables[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	live := m.cluster.AssignableServerIDs()
	if len(live) == 0 {
		m.mu.Unlock()
		return ErrNoLiveServers
	}
	meta := &tableMeta{name: name, raw: raw}
	// Offset the assignment cursor per table so a table and its index
	// table never land region-aligned on the same servers: a global index
	// is generally not collocated with the data it indexes, which is
	// exactly why its maintenance pays remote calls (§3.1).
	m.rr++
	bounds := make([][]byte, 0, len(splits)+2)
	bounds = append(bounds, nil)
	bounds = append(bounds, splits...)
	bounds = append(bounds, nil)
	var regions []RegionInfo
	for i := 0; i < len(bounds)-1; i++ {
		regions = append(regions, RegionInfo{
			ID:     meta.newRegionID(),
			Table:  name,
			Start:  bounds[i],
			End:    bounds[i+1],
			Server: live[m.rr%len(live)],
		})
		m.rr++
	}
	// Registered empty: the name is taken now, the regions appear once open.
	m.tables[name] = meta
	m.mu.Unlock()

	if _, err := m.transition(nil, regions); err != nil {
		m.mu.Lock()
		delete(m.tables, name)
		m.mu.Unlock()
		return err
	}
	return nil
}

// HasTable reports whether the table exists.
func (m *Master) HasTable(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.tables[name]
	return ok
}

// RegionsOf returns a copy of the table's region map, sorted by start key.
// A table whose first regions are still opening has none yet: clients must
// not cache an empty map, so it reads as missing.
func (m *Master) RegionsOf(table string) ([]RegionInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	meta, ok := m.tables[table]
	if !ok || len(meta.regions) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, table)
	}
	out := make([]RegionInfo, len(meta.regions))
	for i, ri := range meta.regions {
		out[i] = *ri
		out[i].raw = meta.raw
	}
	return out, nil
}

// Locate returns the region containing the routing key.
func (m *Master) Locate(table string, key []byte) (RegionInfo, error) {
	regions, err := m.RegionsOf(table)
	if err != nil {
		return RegionInfo{}, err
	}
	p, ok := regionIndex(regions, key)
	if !ok {
		return RegionInfo{}, fmt.Errorf("cluster: no region for key %q in table %s", key, table)
	}
	return regions[p], nil
}

// findRegionLocked resolves a region's metadata entry; m.mu must be held.
func (m *Master) findRegionLocked(regionID string) *RegionInfo {
	for _, meta := range m.tables {
		for _, ri := range meta.regions {
			if ri.ID == regionID {
				return ri
			}
		}
	}
	return nil
}

// CrashServer kills a region server and recovers each of its regions on a
// live server. In HBase this is driven by ZooKeeper heartbeat expiry; here
// the fault injector calls it directly so experiments control timing.
func (m *Master) CrashServer(id string) error {
	server := m.cluster.Server(id)
	if server == nil {
		return fmt.Errorf("cluster: unknown server %s", id)
	}
	server.crash()

	// Re-home every region the dead server hosted. Prefer assignable
	// servers; fall back to any live server so recovery never stalls just
	// because the survivors are draining.
	m.mu.Lock()
	live := m.cluster.AssignableServerIDs()
	if len(live) == 0 {
		live = m.cluster.LiveServerIDs()
	}
	if len(live) == 0 {
		m.mu.Unlock()
		return ErrNoLiveServers
	}
	var plan []handoff
	for _, meta := range m.tables {
		for _, ri := range meta.regions {
			if ri.Server == id {
				plan = append(plan, handoff{*ri, live[m.rr%len(live)]})
				m.rr++
			}
		}
	}
	m.mu.Unlock()
	return m.handOff(plan)
}

// RestartServer brings a crashed region server back online: the server
// restarts with empty in-memory state, adopts any orphaned regions (regions
// whose host is not live — possible if every server was down at once), and
// then takes regions from the most-loaded servers until it holds roughly its
// fair share. Each moved region replays its WAL on the restarted server, so
// recovery (§5.3) — including OnReplay re-enqueueing of index work — runs
// exactly as it does after a crash. The rebalance plan is deterministic:
// regions are considered in sorted ID order and ties go to the
// lexicographically smallest donor.
func (m *Master) RestartServer(id string) error {
	server := m.cluster.Server(id)
	if server == nil {
		return fmt.Errorf("cluster: unknown server %s", id)
	}
	if server.Removed() {
		return fmt.Errorf("cluster: server %s was decommissioned and cannot restart", id)
	}
	if !server.Crashed() {
		return fmt.Errorf("cluster: server %s is not down", id)
	}
	server.restart()

	m.mu.Lock()
	live := m.cluster.LiveServerIDs() // includes id now
	liveSet := make(map[string]bool, len(live))
	for _, lid := range live {
		liveSet[lid] = true
	}
	byServer := make(map[string][]*RegionInfo)
	var orphans []*RegionInfo
	total := 0
	for _, meta := range m.tables {
		for _, ri := range meta.regions {
			total++
			if ri.Server == id || !liveSet[ri.Server] {
				// Metadata points at a dead server, or at the restarted
				// server itself (its crash released everything): nobody
				// serves this region.
				orphans = append(orphans, ri)
			} else {
				byServer[ri.Server] = append(byServer[ri.Server], ri)
			}
		}
	}
	sortRegionPtrs(orphans)
	var plan []handoff
	for _, ri := range orphans {
		plan = append(plan, handoff{*ri, id})
	}
	held := len(orphans)
	fair := total / len(live)
	for held < fair {
		donor := ""
		for sid, regions := range byServer {
			if len(regions) > len(byServer[donor]) || (donor != "" && len(regions) == len(byServer[donor]) && sid < donor) {
				donor = sid
			}
		}
		if donor == "" || len(byServer[donor]) <= held+1 {
			break // stealing more would just invert the imbalance
		}
		regions := byServer[donor]
		sortRegionPtrs(regions)
		var ri *RegionInfo
		for i, cand := range regions {
			if m.cluster.Server(donor).hostsUnfrozen(cand.ID) {
				ri = cand
				byServer[donor] = append(regions[:i:i], regions[i+1:]...)
				break
			}
		}
		if ri == nil {
			delete(byServer, donor) // nothing movable here (e.g. mid-split)
			continue
		}
		plan = append(plan, handoff{*ri, id})
		held++
	}
	m.mu.Unlock()
	return m.handOff(plan)
}

// handoff is one planned move of a region, keeping its ID, to server to.
type handoff struct {
	src RegionInfo
	to  string
}

// handOff runs each planned move as its own transition, so one failure
// never strands the rest, and returns the first error. A move another
// transition claimed first is skipped: that claim wins.
func (m *Master) handOff(plan []handoff) error {
	var firstErr error
	for _, h := range plan {
		if _, err := m.move(h.src, h.to); err != nil && !errors.Is(err, errStaleClaim) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func sortRegionPtrs(regions []*RegionInfo) {
	sort.Slice(regions, func(i, j int) bool { return regions[i].ID < regions[j].ID })
}
