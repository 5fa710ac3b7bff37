package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every fault injected by a FaultFS. Layers above
// can distinguish a simulated disk failure from a real bug with
// errors.Is(err, vfs.ErrInjected).
var ErrInjected = errors.New("vfs: injected fault")

// FaultConfig arms a FaultFS with a seeded fault distribution. All
// probabilities are per-operation in [0, 1]; zero disables that fault kind.
// The same seed always produces the same fault decisions for the same
// operation sequence, which is what makes chaos runs replayable.
type FaultConfig struct {
	// Seed initializes the fault decision stream.
	Seed int64
	// WriteErrProb fails a Write outright (no bytes reach the file).
	WriteErrProb float64
	// PartialWriteProb writes only a prefix of the buffer, then fails — a
	// torn write. On a WAL segment the CRC framing detects the torn tail at
	// replay.
	PartialWriteProb float64
	// SyncErrProb fails a Sync: data was buffered but durability is unknown,
	// exactly the contract of a failed fsync.
	SyncErrProb float64
	// ReadErrProb fails a ReadAt.
	ReadErrProb float64
	// ReadCorruptProb silently flips one bit of a ReadAt result — the read
	// "succeeds" but returns wrong bytes, modelling at-rest bit rot and
	// firmware misreads that no error path reports. Only checksum
	// verification above the VFS can catch it.
	ReadCorruptProb float64
	// SpikeProb injects SpikeLatency of extra delay before an operation — a
	// disk stall rather than an error.
	SpikeProb float64
	// SpikeLatency is the stall charged by a latency spike.
	SpikeLatency time.Duration
	// PathSubstr, when non-empty, limits injection to files whose name
	// contains the substring (e.g. "/wal/" to fault only commit logs).
	PathSubstr string
}

func (c FaultConfig) enabled() bool {
	return c.WriteErrProb > 0 || c.PartialWriteProb > 0 || c.SyncErrProb > 0 ||
		c.ReadErrProb > 0 || c.ReadCorruptProb > 0 || c.SpikeProb > 0
}

// FaultStats counts injected faults by kind. Counters are cumulative across
// Arm/Disarm cycles and safe for concurrent use.
type FaultStats struct {
	WriteErrs     atomic.Int64
	PartialWrites atomic.Int64
	SyncErrs      atomic.Int64
	ReadErrs      atomic.Int64
	Corruptions   atomic.Int64
	Spikes        atomic.Int64
}

// Total returns the number of injected faults of every kind (spikes
// included: a stall is a fault even though the operation succeeds).
func (s *FaultStats) Total() int64 {
	return s.WriteErrs.Load() + s.PartialWrites.Load() + s.SyncErrs.Load() +
		s.ReadErrs.Load() + s.Corruptions.Load() + s.Spikes.Load()
}

// FaultFS wraps an FS and injects failed/partial writes, fsync errors, read
// errors and latency spikes from a seeded decision stream. It composes with
// LatencyFS — the chaos harness stacks LatencyFS(FaultFS(MemFS)) so faulted
// I/O still pays simulated disk latency. A FaultFS starts disarmed (fully
// transparent); Arm installs a fault distribution and Disarm removes it.
type FaultFS struct {
	inner FS

	// Stats accumulates injected-fault counters for the FS lifetime.
	Stats FaultStats

	mu    sync.Mutex
	cfg   FaultConfig
	rng   *rand.Rand
	armed atomic.Bool

	// sleep is replaceable for tests.
	sleep func(time.Duration)
}

// NewFaultFS wraps inner. The returned FS is disarmed: it injects nothing
// until Arm is called.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, sleep: time.Sleep}
}

// Arm installs (or replaces) the fault distribution, reseeding the decision
// stream from cfg.Seed.
func (fs *FaultFS) Arm(cfg FaultConfig) {
	fs.mu.Lock()
	fs.cfg = cfg
	fs.rng = rand.New(rand.NewSource(cfg.Seed))
	fs.mu.Unlock()
	fs.armed.Store(cfg.enabled())
}

// Disarm stops all injection; the FS becomes transparent again.
func (fs *FaultFS) Disarm() {
	fs.armed.Store(false)
	fs.mu.Lock()
	fs.cfg = FaultConfig{}
	fs.mu.Unlock()
}

// decision is one sampled fault outcome for an operation.
type decision struct {
	fail        bool
	partial     float64 // fraction of the buffer to write before failing
	corrupt     bool    // silently flip one bit of a successful read
	corruptFrac float64 // position of the flipped bit, as a fraction of the buffer
	spike       time.Duration
}

// op selects which fault probabilities apply to an operation.
type op int

const (
	opWrite op = iota
	opRead
	opSync
)

// decide samples the fault outcome for one operation on the named file.
func (fs *FaultFS) decide(name string, kind op) decision {
	if !fs.armed.Load() {
		return decision{}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cfg.PathSubstr != "" && !strings.Contains(name, fs.cfg.PathSubstr) {
		return decision{}
	}
	var errProb, partialProb float64
	switch kind {
	case opWrite:
		errProb, partialProb = fs.cfg.WriteErrProb, fs.cfg.PartialWriteProb
	case opRead:
		errProb = fs.cfg.ReadErrProb
	case opSync:
		errProb = fs.cfg.SyncErrProb
	}
	var d decision
	if fs.cfg.SpikeProb > 0 && fs.rng.Float64() < fs.cfg.SpikeProb {
		d.spike = fs.cfg.SpikeLatency
	}
	if errProb > 0 && fs.rng.Float64() < errProb {
		d.fail = true
		return d
	}
	if partialProb > 0 && fs.rng.Float64() < partialProb {
		d.fail = true
		d.partial = fs.rng.Float64()
		return d
	}
	if kind == opRead && fs.cfg.ReadCorruptProb > 0 && fs.rng.Float64() < fs.cfg.ReadCorruptProb {
		d.corrupt = true
		d.corruptFrac = fs.rng.Float64()
	}
	return d
}

// Create implements FS.
func (fs *FaultFS) Create(name string) (File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: fs, name: name}, nil
}

// Open implements FS.
func (fs *FaultFS) Open(name string) (File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: fs, name: name}, nil
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error { return fs.inner.Remove(name) }

// Rename implements FS.
func (fs *FaultFS) Rename(oldName, newName string) error {
	return fs.inner.Rename(oldName, newName)
}

// List implements FS.
func (fs *FaultFS) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }

// Exists implements FS.
func (fs *FaultFS) Exists(name string) (bool, error) { return fs.inner.Exists(name) }

type faultFile struct {
	inner File
	fs    *FaultFS
	name  string
}

func (f *faultFile) Write(p []byte) (int, error) {
	d := f.fs.decide(f.name, opWrite)
	if d.spike > 0 {
		f.fs.Stats.Spikes.Add(1)
		f.fs.sleep(d.spike)
	}
	if d.fail {
		if d.partial > 0 && len(p) > 0 {
			// Torn write: a prefix lands, then the "disk" fails.
			n := int(d.partial * float64(len(p)))
			if n >= len(p) {
				n = len(p) - 1
			}
			if n > 0 {
				f.inner.Write(p[:n])
			}
			f.fs.Stats.PartialWrites.Add(1)
			return n, fmt.Errorf("%w: partial write (%d/%d bytes) on %s", ErrInjected, n, len(p), f.name)
		}
		f.fs.Stats.WriteErrs.Add(1)
		return 0, fmt.Errorf("%w: write on %s", ErrInjected, f.name)
	}
	return f.inner.Write(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	d := f.fs.decide(f.name, opRead)
	if d.spike > 0 {
		f.fs.Stats.Spikes.Add(1)
		f.fs.sleep(d.spike)
	}
	if d.fail {
		f.fs.Stats.ReadErrs.Add(1)
		return 0, fmt.Errorf("%w: read on %s@%d", ErrInjected, f.name, off)
	}
	n, err := f.inner.ReadAt(p, off)
	if d.corrupt && err == nil && n > 0 {
		// Silent corruption: the read reports success but one bit is wrong.
		// Only the buffer is altered — the file itself stays intact, like a
		// transient misread; a re-read may return clean bytes.
		bit := int(d.corruptFrac * float64(n*8))
		if bit >= n*8 {
			bit = n*8 - 1
		}
		p[bit/8] ^= 1 << (bit % 8)
		f.fs.Stats.Corruptions.Add(1)
	}
	return n, err
}

func (f *faultFile) Sync() error {
	d := f.fs.decide(f.name, opSync)
	if d.spike > 0 {
		f.fs.Stats.Spikes.Add(1)
		f.fs.sleep(d.spike)
	}
	if d.fail {
		f.fs.Stats.SyncErrs.Add(1)
		return fmt.Errorf("%w: fsync on %s", ErrInjected, f.name)
	}
	return f.inner.Sync()
}

func (f *faultFile) Size() (int64, error) { return f.inner.Size() }
func (f *faultFile) Close() error         { return f.inner.Close() }
