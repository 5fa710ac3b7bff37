package lsm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/metrics"
	"diffindex/internal/vfs"
)

// scrubStore opens a store with the background loop disabled; scrub tests
// drive cycles deterministically through ScrubOnce.
func scrubStore(t testing.TB, fs vfs.FS, opts func(*Options)) *Store {
	t.Helper()
	o := Options{
		FS:                 fs,
		Dir:                "store",
		MemtableBytes:      1 << 20,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
		ScrubBlockPace:     -1,
	}
	if opts != nil {
		opts(&o)
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scrubCount reads one of the store's scrub counters,
// diffindex_scrub_<what>_total, from its registry.
func scrubCount(s *Store, what string) int64 {
	v, _ := s.opts.Metrics.Value("diffindex_scrub_"+what+"_total", metrics.L("table", s.opts.MetricsTable))
	return v
}

func fillAndFlush(t testing.TB, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		val := []byte(fmt.Sprintf("value-%05d-padpadpadpadpadpadpadpad", i))
		if err := s.Put(key, val, kv.Timestamp(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// corruptTableAtRest flips one byte of an early data block of the first
// SSTable file. Callers must have closed the store first (MemFS handles pin
// the old content otherwise) and reopen it afterwards.
func corruptTableAtRest(t *testing.T, fs vfs.FS) {
	t.Helper()
	names, err := fs.List("store/")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		buf[64] ^= 0xff
		if err := fs.Remove(name); err != nil {
			t.Fatal(err)
		}
		g, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Write(buf); err != nil {
			t.Fatal(err)
		}
		g.Close()
		return
	}
	t.Fatal("no .sst file found to corrupt")
}

func TestScrubCleanStoreFindsNothing(t *testing.T) {
	fs := vfs.NewMemFS()
	s := scrubStore(t, fs, nil)
	defer s.Close()
	fillAndFlush(t, s, 500)
	fillAndFlush(t, s, 500)

	if found := s.ScrubOnce(); found != 0 {
		t.Fatalf("clean store: ScrubOnce found %d corruptions", found)
	}
	if c, b, n := scrubCount(s, "cycles"), scrubCount(s, "blocks"), scrubCount(s, "bytes"); c != 1 || b == 0 || n == 0 {
		t.Fatalf("after one cycle: cycles=%d blocks=%d bytes=%d", c, b, n)
	}
	if n := scrubCount(s, "corruptions"); n != 0 {
		t.Fatalf("clean store reported %d corruptions", n)
	}
}

func TestScrubDetectsAtRestCorruption(t *testing.T) {
	fs := vfs.NewMemFS()
	reg := metrics.NewRegistry()
	s := scrubStore(t, fs, func(o *Options) { o.Metrics = reg; o.MetricsTable = "base" })
	fillAndFlush(t, s, 800)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptTableAtRest(t, fs)

	s = scrubStore(t, fs, func(o *Options) { o.Metrics = reg; o.MetricsTable = "base" })
	defer s.Close()
	found := s.ScrubOnce()
	if found != 1 {
		t.Fatalf("ScrubOnce found %d corruptions, want 1", found)
	}
	if v, ok := reg.Value("diffindex_scrub_corruptions_total", metrics.L("table", "base")); !ok || v != 1 {
		t.Fatalf("scrub corruption counter = %d, %v", v, ok)
	}
	if v, ok := reg.Value("diffindex_scrub_blocks_total", metrics.L("table", "base")); !ok || v == 0 {
		t.Fatalf("scrub blocks counter = %d, %v", v, ok)
	}
	// The damage report is repeatable: a second cycle finds the same block.
	if again := s.ScrubOnce(); again != 1 {
		t.Fatalf("second cycle found %d, want 1", again)
	}
}

func TestScrubDetectsTransientMisread(t *testing.T) {
	// A FaultFS bit-flip on ReadAt models a transient firmware misread: the
	// file is intact but the scrubber's read is corrupted — still caught.
	ffs := vfs.NewFaultFS(vfs.NewMemFS())
	s := scrubStore(t, ffs, nil)
	defer s.Close()
	fillAndFlush(t, s, 800)

	ffs.Arm(vfs.FaultConfig{Seed: 11, ReadCorruptProb: 1, PathSubstr: ".sst"})
	if found := s.ScrubOnce(); found == 0 {
		t.Fatal("scrub missed injected read corruption")
	}
	ffs.Disarm()
	if found := s.ScrubOnce(); found != 0 {
		t.Fatalf("post-disarm cycle found %d corruptions in intact file", found)
	}
}

func TestScrubBackgroundLoopRuns(t *testing.T) {
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		DisableAutoFlush: true, DisableAutoCompact: true,
		ScrubInterval:  2 * time.Millisecond,
		ScrubBlockPace: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillAndFlush(t, s, 500)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if scrubCount(s, "cycles") >= 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("background scrubber completed %d cycles, want ≥ 2", scrubCount(s, "cycles"))
}

func TestScrubRacesWithFlushesAndCompactions(t *testing.T) {
	// The scrubber shares the refcounted table snapshot with reads; this
	// -race exercise runs full-speed cycles against concurrent writers,
	// flushes and compactions and must report zero corruption on clean data.
	fs := vfs.NewMemFS()
	s, err := Open(Options{
		FS: fs, Dir: "store",
		MemtableBytes:   1 << 14,
		CompactionFanIn: 2,
		ScrubInterval:   time.Millisecond,
		ScrubBlockPace:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := []byte(fmt.Sprintf("w%d-k%05d", w, i))
				val := []byte(fmt.Sprintf("value-%05d-padpadpadpadpad", i))
				if err := s.Put(key, val, kv.Timestamp(i+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	s.WaitCompactions()
	// Let at least one post-quiesce cycle complete.
	deadline := time.Now().Add(5 * time.Second)
	start := scrubCount(s, "cycles")
	for time.Now().Before(deadline) && scrubCount(s, "cycles") == start {
		time.Sleep(time.Millisecond)
	}
	if n := scrubCount(s, "corruptions"); n != 0 {
		t.Fatalf("%d false-positive corruptions under churn", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
