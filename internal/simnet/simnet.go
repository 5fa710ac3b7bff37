// Package simnet simulates the cluster network. Every client↔server and
// server↔server interaction is an RPC that pays a configurable round-trip
// latency, and node pairs can be partitioned to inject failures. This stands
// in for the real 10-machine (and 42-VM, §8.1) cluster network: the paper's
// global index is more expensive to update than a local one precisely
// because index regions are usually remote (§3.1), and that cost shows up
// here as simnet latency on every index-table operation.
package simnet

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPartitioned is returned when a call crosses an active network partition.
var ErrPartitioned = errors.New("simnet: network partition between nodes")

// ErrDropped is returned when an injected fault drops an RPC message. A
// dropped request never executes; a dropped response executes the call but
// loses the acknowledgement — the classic "applied but not acked" failure.
var ErrDropped = errors.New("simnet: message dropped")

// Config sets the latency model.
type Config struct {
	// RTT is the round-trip time charged per call (half before the call
	// executes, half before the response returns).
	RTT time.Duration
}

// FaultConfig arms the network with a seeded message-level fault
// distribution, the chaos harness's second injector (alongside
// vfs.FaultFS). Probabilities are per message direction (request and
// response roll independently); zero disables that fault kind.
type FaultConfig struct {
	// Seed initializes the fault decision stream.
	Seed int64
	// DropProb loses a message: a dropped request fails the call without
	// executing it, a dropped response executes the call but returns
	// ErrDropped — the caller cannot tell which happened, like a real
	// timeout.
	DropProb float64
	// DelayProb stalls a message by ExtraDelay on top of the normal
	// latency model.
	DelayProb float64
	// ExtraDelay is the stall charged to a delayed message.
	ExtraDelay time.Duration
}

func (c FaultConfig) enabled() bool { return c.DropProb > 0 || c.DelayProb > 0 }

// Network connects named nodes with simulated latency and partitions.
type Network struct {
	cfg Config

	mu         sync.RWMutex
	partitions map[[2]string]bool
	faults     FaultConfig
	faultRng   *rand.Rand

	calls   atomic.Int64
	drops   atomic.Int64
	delays  atomic.Int64
	faulted atomic.Bool
	// sleep is replaceable for tests.
	sleep func(time.Duration)
}

// New returns a network with the given latency model.
func New(cfg Config) *Network {
	return &Network{
		cfg:        cfg,
		partitions: make(map[[2]string]bool),
		sleep:      time.Sleep,
	}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// messageFault samples the injected fault for one message direction:
// dropped reports a lost message, delay is extra stall to charge.
func (n *Network) messageFault() (dropped bool, delay time.Duration) {
	if !n.faulted.Load() {
		return false, 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.faults.DelayProb > 0 && n.faultRng.Float64() < n.faults.DelayProb {
		delay = n.faults.ExtraDelay
	}
	if n.faults.DropProb > 0 && n.faultRng.Float64() < n.faults.DropProb {
		dropped = true
	}
	return dropped, delay
}

// Call executes fn as an RPC from node `from` to node `to`, charging latency
// in both directions. Local calls (from == to) are free, matching collocated
// access. If the pair is partitioned the call fails without executing fn;
// injected message faults (ArmFaults) can likewise drop or delay either
// direction.
func (n *Network) Call(from, to string, fn func() error) error {
	n.calls.Add(1)
	if from == to {
		return fn()
	}
	n.mu.RLock()
	cut := n.partitions[pairKey(from, to)]
	n.mu.RUnlock()
	if cut {
		return ErrPartitioned
	}
	dropped, extra := n.messageFault()
	if d := n.cfg.RTT/2 + extra; d > 0 {
		n.sleep(d)
	}
	if dropped {
		// The request was lost in flight: fn never executes.
		n.drops.Add(1)
		return ErrDropped
	} else if extra > 0 {
		n.delays.Add(1)
	}
	err := fn()
	// The response also checks the partition state: a partition that forms
	// mid-call loses the response, like a real network.
	n.mu.RLock()
	cut = n.partitions[pairKey(from, to)]
	n.mu.RUnlock()
	if cut {
		return ErrPartitioned
	}
	dropped, extra = n.messageFault()
	if d := n.cfg.RTT/2 + extra; d > 0 {
		n.sleep(d)
	}
	if dropped {
		// The response was lost: fn DID execute, but the caller cannot know.
		n.drops.Add(1)
		return ErrDropped
	} else if extra > 0 {
		n.delays.Add(1)
	}
	return err
}

// ArmFaults installs (or replaces) the message-fault distribution, reseeding
// the decision stream from cfg.Seed.
func (n *Network) ArmFaults(cfg FaultConfig) {
	n.mu.Lock()
	n.faults = cfg
	n.faultRng = rand.New(rand.NewSource(cfg.Seed))
	n.mu.Unlock()
	n.faulted.Store(cfg.enabled())
}

// DisarmFaults stops message-fault injection.
func (n *Network) DisarmFaults() {
	n.faulted.Store(false)
	n.mu.Lock()
	n.faults = FaultConfig{}
	n.mu.Unlock()
}

// FaultCounts returns the cumulative injected drop and delay counts.
func (n *Network) FaultCounts() (drops, delays int64) {
	return n.drops.Load(), n.delays.Load()
}

// Partition cuts connectivity between two nodes until Heal or HealAll.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = true
}

// Heal restores connectivity between two nodes.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions = make(map[[2]string]bool)
}

// Calls returns the cumulative RPC count (including local calls).
func (n *Network) Calls() int64 { return n.calls.Load() }
