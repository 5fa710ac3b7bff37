package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"diffindex/internal/kv"
	"diffindex/internal/lsm"
)

// errStaleClaim means a transition's plan no longer matches the metadata: a
// concurrent transition (usually crash recovery) took a source over first,
// and its claim wins.
var errStaleClaim = errors.New("cluster: region taken over by a concurrent transition")

// transition hands the key ranges of sources over to targets: the one path
// of every placement change (DESIGN.md §14, "Region transitions"). Planners
// pick IDs and servers under mu; transition then
//  1. claims: every source must still be routed where the plan saw it; a
//     target that keeps its source's ID is published now, before the source
//     closes, so crash recovery never opens one store twice;
//  2. hands over: closes every source, first freezing and flushing (which
//     drains the AUQ) when the targets have new IDs and are filled from the
//     sources' files; a same-ID handoff relies on WAL replay instead;
//  3. opens each target through one chain of candidate servers and fills
//     new-ID targets with the sources' full history;
//  4. publishes new-ID targets if the claim still holds, or on any failure
//     closes the targets and reopens every source through the same chain.
//
// It returns the targets as placed.
func (m *Master) transition(sources, targets []RegionInfo) ([]RegionInfo, error) {
	sameID := len(sources) == 1 && len(targets) == 1 && sources[0].ID == targets[0].ID
	targets = append([]RegionInfo(nil), targets...)

	for _, src := range sources {
		to := src.Server
		if sameID {
			to = targets[0].Server
		}
		if !m.reroute(src.ID, src.Server, to) {
			return nil, errStaleClaim
		}
	}

	var err error
	for _, src := range sources {
		s := m.cluster.Server(src.Server)
		if !sameID {
			if err = s.FreezeRegion(src.ID); err == nil {
				err = s.Flush(src.ID)
			}
		}
		// CloseRegion returns once this server holds no store for the region,
		// so the next owner opens it alone. Its error needs no handling: a
		// source not hosted was already released (its server crashed), and
		// a close that fails still marks the store closed.
		_ = s.CloseRegion(src.ID)
		if err != nil {
			break
		}
	}

	chain := m.chain(sources, targets)
	for i := 0; err == nil && i < len(targets); i++ {
		err = m.open(&targets[i], chain, sameID)
	}
	if sameID {
		if err != nil {
			return nil, err
		}
		return targets, nil
	}
	if err == nil {
		err = m.fill(sources, targets)
	}
	if err == nil && !m.publish(sources, targets) {
		err = errStaleClaim
	}
	if err == nil {
		for _, src := range sources {
			m.removeFiles(src)
		}
		return targets, nil
	}

	for _, t := range targets {
		_ = m.cluster.Server(t.Server).CloseRegion(t.ID)
		m.removeFiles(t)
	}
	for _, src := range sources {
		// Best effort: a source no server takes stays routed where it was,
		// with its data in its files.
		_ = m.open(&src, chain, true)
	}
	return nil, err
}

// move hands src over to server to, keeping its ID, and returns the server
// that took it.
func (m *Master) move(src RegionInfo, to string) (string, error) {
	dst := src
	dst.Server = to
	placed, err := m.transition([]RegionInfo{src}, []RegionInfo{dst})
	if err != nil {
		return "", err
	}
	return placed[0].Server, nil
}

// reroute moves a region's route from one server to another under mu. It
// reports false when the metadata no longer routes the region to from:
// another transition took it over.
func (m *Master) reroute(regionID, from, to string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ri := m.findRegionLocked(regionID)
	if ri == nil || ri.Server != from {
		return false
	}
	ri.Server = to
	return true
}

// chain lists the servers a transition may open its regions on, in order:
// the planned targets, the live sources' hosts (a move falls back to its
// donor), then every assignable server, or every live one when all drain.
func (m *Master) chain(sources, targets []RegionInfo) []string {
	var ids []string
	for _, ri := range append(append([]RegionInfo(nil), targets...), sources...) {
		ids = append(ids, ri.Server)
	}
	rest := m.cluster.AssignableServerIDs()
	if len(rest) == 0 {
		rest = m.cluster.LiveServerIDs()
	}
	seen := make(map[string]bool)
	var out []string
	for _, id := range append(ids, rest...) {
		if s := m.cluster.Server(id); s != nil && !s.Crashed() && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// open opens ri on its server, moving down chain while opens fail. A
// published region is re-claimed under mu before every attempt, so a
// transition that took it over meanwhile wins; an unpublished one just
// moves.
func (m *Master) open(ri *RegionInfo, chain []string, published bool) error {
	tried := make(map[string]bool, len(chain))
	routed := ri.Server
	for next := ri.Server; ; {
		if published && !m.reroute(ri.ID, routed, next) {
			return errStaleClaim
		}
		ri.Server, routed = next, next
		tried[next] = true
		err := m.cluster.Server(next).OpenRegion(*ri)
		if err == nil {
			return nil
		}
		next = ""
		for _, id := range chain {
			if !tried[id] {
				next = id
				break
			}
		}
		if next == "" {
			return err
		}
	}
}

// fill copies the sources' full MVCC history into the targets, each cell to
// the target whose range holds its routing key; a cell no target holds
// fails the fill. ScanAll emits every version and tombstone: without
// tombstones a late-redelivered index cell (at-least-once delivery) could
// resurrect a superseded entry. The sources' history is already trimmed
// below their GC horizons, so every target starts at the largest of them
// (DESIGN.md §13) and refuses what its sources refused.
func (m *Master) fill(sources, targets []RegionInfo) error {
	m.mu.RLock()
	raw := m.tables[targets[0].Table].raw
	m.mu.RUnlock()
	stores := make([]*lsm.Store, len(targets))
	for i, t := range targets {
		region, err := m.cluster.Server(t.Server).region(t.ID)
		if err != nil {
			return err
		}
		stores[i] = region.store
	}
	for _, src := range sources {
		store, err := lsm.Open(lsm.Options{
			FS:                 m.cluster.FS,
			Dir:                regionDir(src),
			DisableAutoFlush:   true,
			DisableAutoCompact: true,
			DisableScrub:       true,
		})
		if err != nil {
			return fmt.Errorf("cluster: reopen %s to copy it: %w", src.ID, err)
		}
		cells, err := store.ScanAll(nil, nil, kv.MaxTimestamp)
		horizon := store.Horizon()
		store.Close()
		if err != nil {
			return err
		}
		parts := make([][]kv.Cell, len(targets))
		for _, c := range cells {
			route, err := routingKeyOf(raw, c.Key)
			if err != nil {
				return fmt.Errorf("cluster: route a cell of %s: %w", src.ID, err)
			}
			i := slices.IndexFunc(targets, func(t RegionInfo) bool { return t.Contains(route) })
			if i < 0 {
				return fmt.Errorf("cluster: cell %q of region %s lies in no target", c.Key, src.ID)
			}
			parts[i] = append(parts[i], c)
		}
		for i, t := range targets {
			if err := stores[i].RaiseHorizon(horizon); err != nil {
				return err
			}
			if err := applyChunked(m.cluster.Server(t.Server), t.ID, parts[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// publish swaps sources for targets in the table's region map, if every
// source is still routed where the claim saw it and every target is served.
func (m *Master) publish(sources, targets []RegionInfo) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	gone := make(map[string]bool, len(sources))
	for _, src := range sources {
		if ri := m.findRegionLocked(src.ID); ri == nil || ri.Server != src.Server {
			return false
		}
		gone[src.ID] = true
	}
	for _, t := range targets {
		if !m.serves(t) {
			return false
		}
	}
	meta := m.tables[targets[0].Table]
	regions := make([]*RegionInfo, 0, len(meta.regions)+len(targets))
	for _, ri := range meta.regions {
		if !gone[ri.ID] {
			regions = append(regions, ri)
		}
	}
	for _, t := range targets {
		regions = append(regions, &t)
	}
	sort.Slice(regions, func(i, j int) bool { return bytes.Compare(regions[i].Start, regions[j].Start) < 0 })
	meta.regions = regions
	return true
}

// serves reports whether ri's server is up and serves ri, unfrozen.
func (m *Master) serves(ri RegionInfo) bool {
	s := m.cluster.Server(ri.Server)
	return s != nil && !s.Crashed() && s.hostsUnfrozen(ri.ID)
}

// Unserved returns the regions whose metadata names a server that does not
// serve them, unfrozen: empty whenever no transition is in flight. It holds
// the topology lock, so it waits out splits, merges and moves; crash and
// restart handling do not take that lock.
func (m *Master) Unserved() []RegionInfo {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []RegionInfo
	for _, meta := range m.tables {
		for _, ri := range meta.regions {
			if !m.serves(*ri) {
				out = append(out, *ri)
			}
		}
	}
	return out
}

// removeFiles deletes a region's files once nothing routes to them.
func (m *Master) removeFiles(ri RegionInfo) {
	names, _ := m.cluster.FS.List(regionDir(ri) + "/")
	for _, name := range names {
		m.cluster.FS.Remove(name)
	}
}

// routingKeyOf maps a store key to its routing key: identity for raw
// tables; for row tables, the row of a base cell or of a local-index entry.
func routingKeyOf(raw bool, storeKey []byte) ([]byte, error) {
	if raw {
		return storeKey, nil
	}
	if kv.IsLocalIndexKey(storeKey) {
		return kv.LocalIndexRow(storeKey)
	}
	row, _, err := kv.SplitBaseKey(storeKey)
	return row, err
}

// applyChunked writes cells to a region in batches.
func applyChunked(s *RegionServer, regionID string, cells []kv.Cell) error {
	const chunk = 256
	for len(cells) > 0 {
		n := chunk
		if n > len(cells) {
			n = len(cells)
		}
		if err := s.Apply(regionID, cells[:n]); err != nil {
			return err
		}
		cells = cells[n:]
	}
	return nil
}
