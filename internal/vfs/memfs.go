package vfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS. It is safe for concurrent use and supports many
// concurrent handles to the same file (readers see data as soon as it is
// written, matching the HDFS visibility the paper's WAL recovery relies on).
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memData
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memData)}
}

// chunkSize is the unit in which a MemFS file grows. A file past its first
// chunk gains whole chunks, so an append never re-copies what is already
// written; only the first chunk grows by reallocation, which keeps small
// files small.
const chunkSize = 64 << 10

type memData struct {
	mu     sync.RWMutex
	chunks [][]byte // every chunk but the last holds exactly chunkSize bytes
	size   int64
}

// write appends p. The caller holds mu.
func (d *memData) write(p []byte) {
	for len(p) > 0 {
		if len(d.chunks) == 0 || len(d.chunks[len(d.chunks)-1]) == chunkSize {
			var c []byte
			if len(d.chunks) > 0 {
				c = make([]byte, 0, chunkSize)
			}
			d.chunks = append(d.chunks, c)
		}
		last := &d.chunks[len(d.chunks)-1]
		n := min(len(p), chunkSize-len(*last))
		*last = append(*last, p[:n]...)
		p = p[n:]
		d.size += int64(n)
	}
}

// readAt copies the bytes at off into p and returns how many it copied. The
// caller holds mu and has checked 0 ≤ off < size.
func (d *memData) readAt(p []byte, off int64) int {
	n := 0
	for n < len(p) && off < d.size {
		k := copy(p[n:], d.chunks[off/chunkSize][off%chunkSize:])
		n += k
		off += int64(k)
	}
	return n
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	d := &memData{}
	fs.files[name] = d
	return &memFile{d: d}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
	}
	return &memFile{d: d}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
	}
	delete(fs.files, oldName)
	fs.files[newName] = d
	return nil
}

// List implements FS.
func (fs *MemFS) List(prefix string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) (bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok, nil
}

type memFile struct {
	d      *memData
	closed bool
	mu     sync.Mutex // guards closed
}

func (f *memFile) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Write appends p to the file.
func (f *memFile) Write(p []byte) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.d.mu.Lock()
	f.d.write(p)
	f.d.mu.Unlock()
	return len(p), nil
}

// ReadAt implements io.ReaderAt.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= f.d.size {
		return 0, io.EOF
	}
	n := f.d.readAt(p, off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Sync is a no-op for MemFS.
func (f *memFile) Sync() error { return f.checkOpen() }

// Size returns the file length.
func (f *memFile) Size() (int64, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	return f.d.size, nil
}

// Close marks the handle closed. The underlying data stays in the FS.
func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
