package vfs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMemFSCreateOpenWriteRead(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("a/b/1.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil || sz != 11 {
		t.Fatalf("Size() = %d, %v; want 11", sz, err)
	}

	// A second handle sees the written data.
	g, err := fs.Open("a/b/1.log")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("ReadAt = %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSErrors(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open missing: %v", err)
	}
	if err := fs.Remove("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove missing: %v", err)
	}
	if err := fs.Rename("missing", "x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Rename missing: %v", err)
	}
	if _, err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("f"); !errors.Is(err, ErrExist) {
		t.Errorf("Create duplicate: %v", err)
	}
}

func TestMemFSClosedHandle(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after close: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadAt after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestMemFSReadAtEOF(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	f.Write([]byte("abc"))
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Errorf("short ReadAt = (%d, %v), want (2, EOF)", n, err)
	}
	if !bytes.Equal(buf[:n], []byte("bc")) {
		t.Errorf("data = %q", buf[:n])
	}
	if _, err := f.ReadAt(buf, 3); err != io.EOF {
		t.Errorf("ReadAt at end: %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative offset: want error")
	}
}

func TestMemFSListAndRename(t *testing.T) {
	fs := NewMemFS()
	for _, name := range []string{"wal/2", "wal/1", "sst/9", "wal/10"} {
		if _, err := fs.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fs.List("wal/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"wal/1", "wal/10", "wal/2"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if err := fs.Rename("wal/1", "sst/1"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := fs.Exists("wal/1"); ok {
		t.Error("renamed file still exists under old name")
	}
	if ok, _ := fs.Exists("sst/1"); !ok {
		t.Error("renamed file missing under new name")
	}
}

func TestMemFSConcurrentAppend(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := f.Write([]byte("0123456789")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sz, _ := f.Size()
	if sz != writers*per*10 {
		t.Errorf("size = %d, want %d", sz, writers*per*10)
	}
}

func TestLatencyFSChargesAndCounts(t *testing.T) {
	var slept time.Duration
	lfs := NewLatencyFS(NewMemFS(), LatencyProfile{
		ReadLatency:    100 * time.Microsecond,
		WriteLatency:   10 * time.Microsecond,
		SyncLatency:    50 * time.Microsecond,
		BytesPerSecond: 1 << 20,
	})
	lfs.sleep = func(d time.Duration) { slept += d }

	f, err := lfs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20) // transfer time = 1s at 1 MiB/s
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	wantWrite := 10*time.Microsecond + time.Second
	if slept != wantWrite {
		t.Errorf("write slept %v, want %v", slept, wantWrite)
	}
	slept = 0
	if _, err := f.ReadAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	wantRead := 100*time.Microsecond + time.Second
	if slept != wantRead {
		t.Errorf("read slept %v, want %v", slept, wantRead)
	}
	slept = 0
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if slept != 50*time.Microsecond {
		t.Errorf("sync slept %v", slept)
	}

	r, w, s, br, bw := lfs.Stats.Snapshot()
	if r != 1 || w != 1 || s != 1 || br != 1<<20 || bw != 1<<20 {
		t.Errorf("stats = (%d %d %d %d %d)", r, w, s, br, bw)
	}
}

func TestLatencyFSZeroProfileNoSleep(t *testing.T) {
	lfs := NewLatencyFS(NewMemFS(), LatencyProfile{})
	lfs.sleep = func(time.Duration) { t.Error("sleep called with zero profile") }
	f, _ := lfs.Create("f")
	f.Write([]byte("x"))
	f.ReadAt(make([]byte, 1), 0)
	f.Sync()
}

func TestLatencyFSPassthrough(t *testing.T) {
	lfs := NewLatencyFS(NewMemFS(), LatencyProfile{})
	if _, err := lfs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := lfs.Open("a"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := lfs.Exists("a"); !ok {
		t.Error("Exists(a) = false")
	}
	if err := lfs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	names, err := lfs.List("")
	if err != nil || len(names) != 1 || names[0] != "b" {
		t.Errorf("List = %v, %v", names, err)
	}
	if err := lfs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := lfs.Open("b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open removed: %v", err)
	}
}

// pattern returns n bytes of a position-dependent pattern starting at file
// offset off, so any misplaced byte is detected.
func pattern(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		p := off + i
		b[i] = byte(p ^ p>>8 ^ p>>16)
	}
	return b
}

// TestMemFSChunkBoundaries writes in sizes that land on, just before and just
// past chunk boundaries, and reads every write back plus ranges straddling
// each boundary and ranges running past EOF.
func TestMemFSChunkBoundaries(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("f")
	size := 0
	for _, n := range []int{1, chunkSize - 2, 1, 1, 3*chunkSize + 5, 0, chunkSize - 6, 7, 2 * chunkSize} {
		if _, err := f.Write(pattern(size, n)); err != nil {
			t.Fatal(err)
		}
		size += n
		if got, _ := f.Size(); got != int64(size) {
			t.Fatalf("Size = %d, want %d", got, size)
		}
	}
	for b := chunkSize; b < size; b += chunkSize {
		for _, r := range [][2]int{{b - 1, 2}, {b - 100, 200}, {b, 1}, {b - 1, 1}, {b - chunkSize, 2*chunkSize + 3}} {
			off, n := r[0], min(r[1], size-r[0])
			buf := make([]byte, n)
			if got, err := f.ReadAt(buf, int64(off)); got != n || err != nil {
				t.Fatalf("ReadAt(%d, %d) = (%d, %v)", off, n, got, err)
			}
			if !bytes.Equal(buf, pattern(off, n)) {
				t.Fatalf("ReadAt(%d, %d): wrong bytes", off, n)
			}
		}
	}
	whole := make([]byte, size+10)
	if n, err := f.ReadAt(whole, 0); n != size || err != io.EOF || !bytes.Equal(whole[:n], pattern(0, size)) {
		t.Fatalf("whole-file ReadAt = (%d, %v), want (%d, EOF) and the written bytes", n, err, size)
	}
	if n, err := f.ReadAt(make([]byte, 4), int64(size)); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at EOF = (%d, %v)", n, err)
	}
	if n, err := f.ReadAt(make([]byte, 4), int64(size+chunkSize)); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt a chunk past EOF = (%d, %v)", n, err)
	}
}

// TestMemFSTailWhileAppending reads a file through a second handle while a
// writer appends to it, as the WAL tail reads a live segment: every read up
// to the size it observed returns exactly the written bytes.
func TestMemFSTailWhileAppending(t *testing.T) {
	fs := NewMemFS()
	w, _ := fs.Create("seg")
	r, err := fs.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	const total = 5*chunkSize + 123
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off, i := 0, 0; off < total; i++ {
			n := min([]int{17, 4096, chunkSize - 1, 1, 70000}[i%5], total-off)
			if _, err := w.Write(pattern(off, n)); err != nil {
				t.Error(err)
				return
			}
			off += n
		}
	}()
	read := 0
	for read < total {
		size, err := r.Size()
		if err != nil {
			t.Fatal(err)
		}
		if int(size) == read {
			select {
			case <-done:
				if s, _ := r.Size(); int(s) == read {
					t.Fatalf("writer finished at %d of %d bytes", read, total)
				}
			default:
				runtime.Gosched()
			}
			continue
		}
		buf := make([]byte, int(size)-read)
		if n, err := r.ReadAt(buf, int64(read)); n != len(buf) || err != nil {
			t.Fatalf("ReadAt(%d, %d) = (%d, %v)", read, len(buf), n, err)
		}
		if !bytes.Equal(buf, pattern(read, len(buf))) {
			t.Fatalf("tail read at %d: wrong bytes", read)
		}
		read = int(size)
	}
	<-done
}
