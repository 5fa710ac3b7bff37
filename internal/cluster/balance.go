package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file is the elastic half of the cluster: a continuous load-aware
// balancer that generalizes RestartServer's one-shot steal-from-most-loaded
// rebalance into a periodic loop, region moves, and live server decommission
// with drain-and-handoff. All of them are planners over the one
// region-transition primitive (transition.go).
//
// Every decision is deterministic given the observed load counters: servers
// and regions are considered in sorted order and ties go to the
// lexicographically smallest ID, mirroring RestartServer's plan.

const (
	// hotspotRatio is the donor/receiver load ratio that triggers a move:
	// the most-loaded server must carry more than hotspotRatio times the
	// least-loaded server's ops.
	hotspotRatio = 2.0
	// minMoveOps is the minimum absolute load gap (ops since the previous
	// round) worth acting on; smaller gaps are noise.
	minMoveOps = 16
)

// Move records one balancer-driven region migration.
type Move struct {
	Region, From, To string
}

// BalanceReport is what one balancer round observed and did.
type BalanceReport struct {
	// Loads is the per-server op count accumulated since the previous round
	// (assignable servers only).
	Loads map[string]int64
	// Moves lists the region migrations performed (at most one per round).
	Moves []Move
}

// hostedRegion pairs a region with its load delta for planning.
type hostedRegion struct {
	id   string
	load int64
}

// BalanceOnce runs one round of the continuous balancer: collect per-region
// load deltas and move the region that best evens out the worst hotspot (at
// most one move). Single-step rounds keep each round cheap and let the loop
// converge incrementally, like HBase's balancer chore.
func (m *Master) BalanceOnce() BalanceReport {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	reg := m.cluster.metrics
	reg.Counter("diffindex_balance_rounds_total").Inc()

	servers := m.cluster.AssignableServerIDs()
	sort.Strings(servers)
	report := BalanceReport{Loads: make(map[string]int64, len(servers))}

	// Collect this round's per-region load deltas, then attribute them to
	// servers through the master's metadata (the authority on placement).
	regionLoad := make(map[string]int64)
	for _, id := range servers {
		report.Loads[id] = 0
		for rid, n := range m.cluster.Server(id).TakeRegionLoads() {
			regionLoad[rid] += n
		}
	}
	byServer := make(map[string][]hostedRegion, len(servers))
	m.mu.RLock()
	for _, meta := range m.tables {
		for _, ri := range meta.regions {
			if _, ok := report.Loads[ri.Server]; !ok {
				continue // hosted on a crashed/draining server: not balanced here
			}
			load := regionLoad[ri.ID]
			report.Loads[ri.Server] += load
			byServer[ri.Server] = append(byServer[ri.Server], hostedRegion{ri.ID, load})
		}
	}
	m.mu.RUnlock()

	if mv, ok := m.planMove(servers, report.Loads, byServer); ok {
		if moved, err := m.moveRegion(mv.Region, mv.From, mv.To); err == nil && moved {
			report.Moves = append(report.Moves, mv)
			reg.Counter("diffindex_balance_moves_total").Inc()
		}
	}
	return report
}

// planMove picks the single region migration that best evens out the load
// gap between the most- and least-loaded servers, or reports none is worth
// making. Moving a region of load L changes the donor/receiver gap from g to
// |g − 2L|, so the best candidate minimizes that residual; a move is only
// made when it strictly shrinks the gap (a region hotter than the whole gap
// would just relocate the hotspot).
func (m *Master) planMove(servers []string, loads map[string]int64, byServer map[string][]hostedRegion) (Move, bool) {
	if len(servers) < 2 {
		return Move{}, false
	}
	donor, receiver := servers[0], servers[0]
	for _, id := range servers[1:] {
		if loads[id] > loads[donor] {
			donor = id
		}
		if loads[id] < loads[receiver] {
			receiver = id
		}
	}
	gap := loads[donor] - loads[receiver]
	if donor == receiver || gap < minMoveOps ||
		float64(loads[donor]) <= hotspotRatio*float64(loads[receiver]) {
		return Move{}, false
	}
	ds := m.cluster.Server(donor)
	if ds == nil {
		return Move{}, false
	}
	cands := append([]hostedRegion(nil), byServer[donor]...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	best, bestResid := "", gap
	for _, h := range cands {
		if !ds.hostsUnfrozen(h.id) {
			continue // mid-split or not actually served here
		}
		resid := gap - 2*h.load
		if resid < 0 {
			resid = -resid
		}
		if resid < bestResid {
			best, bestResid = h.id, resid
		}
	}
	if best == "" {
		return Move{}, false
	}
	return Move{Region: best, From: donor, To: receiver}, true
}

// MoveRegion migrates one region to the given live server: close on the
// current host (dropping its AUQ), reopen on the target (WAL replay
// reconstructs the memtable and re-enqueues index work, §5.3). Returns
// (false, nil) when the region was not movable (re-homed concurrently by
// failure recovery, frozen mid-split, or already on the target) or landed
// elsewhere because the target could not open it.
func (m *Master) MoveRegion(regionID, to string) (bool, error) {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	return m.moveRegion(regionID, "", to)
}

// moveRegion plans one move, from server from ("" for wherever the region
// is) to server to, with the topology lock held.
func (m *Master) moveRegion(regionID, from, to string) (bool, error) {
	m.mu.RLock()
	var src RegionInfo
	ri := m.findRegionLocked(regionID)
	if ri != nil {
		src = *ri
	}
	m.mu.RUnlock()
	target := m.cluster.Server(to)
	switch {
	case ri == nil:
		return false, fmt.Errorf("cluster: unknown region %s", regionID)
	case target == nil:
		return false, fmt.Errorf("cluster: unknown server %s", to)
	case from == "":
		from = src.Server
	}
	if src.Server != from || from == to || target.Crashed() || !m.serves(src) {
		return false, nil // re-homed, already there, frozen, or an endpoint died
	}
	placed, err := m.move(src, to)
	if errors.Is(err, errStaleClaim) {
		return false, nil
	}
	return placed == to, err
}

// DecommissionServer removes a live server from the cluster gracefully:
// mark it draining (no new assignments), flush its regions (shrinking the
// WAL each receiver must replay), hand every region off to the remaining
// assignable servers round-robin, then retire the server permanently. The
// inverse of Cluster.AddServer.
func (m *Master) DecommissionServer(id string) error {
	server := m.cluster.Server(id)
	if server == nil {
		return fmt.Errorf("cluster: unknown server %s", id)
	}
	if server.Removed() {
		return fmt.Errorf("cluster: server %s already decommissioned", id)
	}
	if server.Crashed() {
		// A crashed server's regions were already reassigned by CrashServer;
		// retiring it is pure bookkeeping.
		server.markRemoved()
		return nil
	}
	server.setDraining(true)

	// Best-effort flush BEFORE taking the topology lock: a flush waits out
	// any in-flight replay dispatch on the region's write gate, and that
	// dispatch may itself be blocked until a transition (which needs topoMu)
	// puts the region its index work targets back in service.
	_ = server.FlushAll()

	m.topoMu.Lock()
	defer m.topoMu.Unlock()

	// Hand off every region routed to this server. A single pass can skip
	// regions — moveRegion declines when a target crashed mid-move or a
	// concurrent restart stole the region first — so re-scan until nothing
	// is routed here. Retiring the server while metadata still points at it
	// would strand those ranges: markRemoved crashes the server WITHOUT the
	// master-side reassignment CrashServer performs.
	for pass := 0; ; pass++ {
		targets := m.cluster.AssignableServerIDs()
		if len(targets) == 0 {
			server.setDraining(false)
			return fmt.Errorf("cluster: cannot decommission %s: no other assignable server", id)
		}
		sort.Strings(targets)

		m.mu.RLock()
		var regions []string
		for _, meta := range m.tables {
			for _, ri := range meta.regions {
				if ri.Server == id {
					regions = append(regions, ri.ID)
				}
			}
		}
		m.mu.RUnlock()
		if len(regions) == 0 {
			break
		}
		if pass >= 8 {
			server.setDraining(false)
			return fmt.Errorf("cluster: decommission %s: %d regions still routed here after %d passes", id, len(regions), pass)
		}
		sort.Strings(regions)
		for i, rid := range regions {
			if _, err := m.moveRegion(rid, id, targets[i%len(targets)]); err != nil {
				server.setDraining(false)
				return fmt.Errorf("cluster: decommission %s: %w", id, err)
			}
		}
	}
	server.markRemoved()
	return nil
}

// StartBalancer runs BalanceOnce every interval (> 0) until StopBalancer
// (or cluster Close). Idempotent: a second start while running is a no-op.
func (m *Master) StartBalancer(interval time.Duration) {
	m.balMu.Lock()
	defer m.balMu.Unlock()
	if m.balStop != nil {
		return
	}
	stop := make(chan struct{})
	m.balStop = stop
	m.balWG.Add(1)
	go func() {
		defer m.balWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.BalanceOnce()
			}
		}
	}()
}

// StopBalancer stops the continuous balancer loop and waits for the
// in-flight round to finish. Safe to call when the balancer never started.
func (m *Master) StopBalancer() {
	m.balMu.Lock()
	stop := m.balStop
	m.balStop = nil
	m.balMu.Unlock()
	if stop != nil {
		close(stop)
		m.balWG.Wait()
	}
}
