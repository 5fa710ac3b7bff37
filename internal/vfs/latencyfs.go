package vfs

import (
	"sync/atomic"
	"time"
)

// LatencyProfile configures the simulated I/O costs of a LatencyFS. All
// durations may be zero to disable that cost. The defaults used by the
// benchmark harness model a commodity disk behind a distributed file system,
// scaled down so experiments complete quickly while preserving the paper's
// read ≫ write asymmetry (DESIGN.md substitution S1).
type LatencyProfile struct {
	// ReadLatency is charged once per ReadAt call — a random I/O (seek).
	ReadLatency time.Duration
	// WriteLatency is charged once per Write call — a sequential append.
	WriteLatency time.Duration
	// SyncLatency is charged once per Sync call — a commit-log fsync.
	SyncLatency time.Duration
	// BytesPerSecond, if non-zero, additionally charges transfer time
	// proportional to the byte count of each read and write.
	BytesPerSecond int64
}

func (p LatencyProfile) transfer(n int) time.Duration {
	if p.BytesPerSecond <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(int64(n) * int64(time.Second) / p.BytesPerSecond)
}

// IOStats counts I/O operations flowing through a LatencyFS. Counters are
// cumulative and safe for concurrent use; the benchmark snapshots them to
// report per-op disk I/O.
type IOStats struct {
	Reads      atomic.Int64
	Writes     atomic.Int64
	Syncs      atomic.Int64
	BytesRead  atomic.Int64
	BytesWrite atomic.Int64
}

// Snapshot returns the current counter values.
func (s *IOStats) Snapshot() (reads, writes, syncs, bytesRead, bytesWritten int64) {
	return s.Reads.Load(), s.Writes.Load(), s.Syncs.Load(), s.BytesRead.Load(), s.BytesWrite.Load()
}

// LatencyFS wraps an FS and injects I/O latency per the profile, counting
// operations in Stats. Sleeping happens outside any FS lock, so concurrent
// I/O overlaps exactly as it would on real hardware with independent queues.
type LatencyFS struct {
	inner   FS
	profile LatencyProfile
	// Stats accumulates I/O counters for the lifetime of the FS.
	Stats IOStats
	// sleep is replaceable for tests.
	sleep func(time.Duration)
}

// NewLatencyFS wraps inner with the given latency profile.
func NewLatencyFS(inner FS, profile LatencyProfile) *LatencyFS {
	return &LatencyFS{inner: inner, profile: profile, sleep: time.Sleep}
}

func (fs *LatencyFS) delay(d time.Duration) {
	if d > 0 {
		fs.sleep(d)
	}
}

// Create implements FS.
func (fs *LatencyFS) Create(name string) (File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{inner: f, fs: fs}, nil
}

// Open implements FS.
func (fs *LatencyFS) Open(name string) (File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{inner: f, fs: fs}, nil
}

// Remove implements FS.
func (fs *LatencyFS) Remove(name string) error { return fs.inner.Remove(name) }

// Rename implements FS.
func (fs *LatencyFS) Rename(oldName, newName string) error {
	return fs.inner.Rename(oldName, newName)
}

// List implements FS.
func (fs *LatencyFS) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }

// Exists implements FS.
func (fs *LatencyFS) Exists(name string) (bool, error) { return fs.inner.Exists(name) }

type latencyFile struct {
	inner File
	fs    *LatencyFS
}

func (f *latencyFile) Write(p []byte) (int, error) {
	f.fs.delay(f.fs.profile.WriteLatency + f.fs.profile.transfer(len(p)))
	n, err := f.inner.Write(p)
	f.fs.Stats.Writes.Add(1)
	f.fs.Stats.BytesWrite.Add(int64(n))
	return n, err
}

func (f *latencyFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.delay(f.fs.profile.ReadLatency + f.fs.profile.transfer(len(p)))
	n, err := f.inner.ReadAt(p, off)
	f.fs.Stats.Reads.Add(1)
	f.fs.Stats.BytesRead.Add(int64(n))
	return n, err
}

func (f *latencyFile) Sync() error {
	f.fs.delay(f.fs.profile.SyncLatency)
	f.fs.Stats.Syncs.Add(1)
	return f.inner.Sync()
}

func (f *latencyFile) Size() (int64, error) { return f.inner.Size() }
func (f *latencyFile) Close() error         { return f.inner.Close() }
