package cluster

import (
	"bytes"
	"fmt"
)

// SplitRegion splits a region in two at splitKey (a routing key strictly
// inside the region's range), like HBase's manual region split. The lower
// child stays on the region's server; the upper child is assigned
// round-robin. The parent is frozen, flushed (draining its AUQ) and closed,
// and its full history is copied into the children (transition.go); clients
// back off and retry until the children are published.
func (m *Master) SplitRegion(regionID string, splitKey []byte) error {
	// Serialize against merges, balancer moves and decommissions. Crash and
	// restart recovery intentionally bypass this lock.
	m.topoMu.Lock()
	defer m.topoMu.Unlock()

	m.mu.Lock()
	parent := m.findRegionLocked(regionID)
	if parent == nil {
		m.mu.Unlock()
		return fmt.Errorf("cluster: unknown region %s", regionID)
	}
	if !parent.Contains(splitKey) || (parent.Start != nil && bytes.Equal(splitKey, parent.Start)) {
		m.mu.Unlock()
		return fmt.Errorf("cluster: split key %q outside region %s", splitKey, parent)
	}
	live := m.cluster.AssignableServerIDs()
	if len(live) == 0 {
		live = m.cluster.LiveServerIDs()
	}
	if m.cluster.Server(parent.Server).Crashed() || len(live) == 0 {
		m.mu.Unlock()
		return ErrServerDown
	}
	meta := m.tables[parent.Table]
	lower := RegionInfo{
		ID:     meta.newRegionID(),
		Table:  parent.Table,
		Start:  parent.Start,
		End:    append([]byte(nil), splitKey...),
		Server: parent.Server,
	}
	upper := RegionInfo{
		ID:     meta.newRegionID(),
		Table:  parent.Table,
		Start:  append([]byte(nil), splitKey...),
		End:    parent.End,
		Server: live[m.rr%len(live)],
	}
	m.rr++
	src := *parent
	m.mu.Unlock()

	if _, err := m.transition([]RegionInfo{src}, []RegionInfo{lower, upper}); err != nil {
		return fmt.Errorf("cluster: split %s: %w", regionID, err)
	}
	return nil
}

// MergeRegions merges two ADJACENT regions of a table into one, the inverse
// of SplitRegion (HBase's region merge). Both parents are frozen, flushed
// (draining their AUQs) and closed; their history is copied into a child
// covering the union range, hosted on the lower parent's server.
func (m *Master) MergeRegions(lowerID, upperID string) error {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	_, err := m.mergeRegions(lowerID, upperID)
	return err
}

// mergeRegions is MergeRegions without the topology lock, for callers that
// already hold it (the balancer's cold-merge pass). It returns the child's
// ID.
func (m *Master) mergeRegions(lowerID, upperID string) (string, error) {
	m.mu.Lock()
	lower := m.findRegionLocked(lowerID)
	if lower == nil {
		m.mu.Unlock()
		return "", fmt.Errorf("cluster: unknown region %s", lowerID)
	}
	meta := m.tables[lower.Table]
	idx := 0
	for meta.regions[idx] != lower {
		idx++
	}
	if idx+1 >= len(meta.regions) || meta.regions[idx+1].ID != upperID {
		m.mu.Unlock()
		return "", fmt.Errorf("cluster: regions %s and %s are not adjacent", lowerID, upperID)
	}
	upper := meta.regions[idx+1]
	if m.cluster.Server(lower.Server).Crashed() || m.cluster.Server(upper.Server).Crashed() {
		m.mu.Unlock()
		return "", ErrServerDown
	}
	child := RegionInfo{
		ID:     meta.newRegionID(),
		Table:  lower.Table,
		Start:  lower.Start,
		End:    upper.End,
		Server: lower.Server,
	}
	sources := []RegionInfo{*lower, *upper}
	m.mu.Unlock()

	if _, err := m.transition(sources, []RegionInfo{child}); err != nil {
		return "", fmt.Errorf("cluster: merge %s and %s: %w", lowerID, upperID, err)
	}
	return child.ID, nil
}
