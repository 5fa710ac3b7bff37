package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// A span is one call from the benchmark into the program: which call, when
// it started and ended, the span that caused it and the op it belongs to.
// Spans are recorded from the benchmark's side of each boundary only; spans
// inside the program are a later change.
type span struct {
	name   int32
	parent int32 // index into tracer.roots, -1 for a root
	op     int32 // sequence number of the op within its buffer
	calls  int32 // calls covered: 1, or a batch for sub-microsecond layers
	start  int64 // ns since the tracer's origin
	end    int64
}

// spanBuf is one goroutine's spans; it is not shared while recording.
type spanBuf struct {
	origin time.Time
	spans  []span
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	names  []string
	roots  []span // phases: their index is what child spans name as parent
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) nameID(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.names {
		if n == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	return int32(len(t.names) - 1)
}

// root opens a phase span and returns its index and the function closing it.
func (t *tracer) root(name string) (id int32, done func()) {
	n := t.nameID(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	id = int32(len(t.roots))
	t.roots = append(t.roots, span{name: n, parent: -1, calls: 1, start: int64(time.Since(t.origin))})
	return id, func() {
		t.mu.Lock()
		t.roots[id].end = int64(time.Since(t.origin))
		t.mu.Unlock()
	}
}

func (t *tracer) newBuf(capacity int) *spanBuf {
	b := &spanBuf{origin: t.origin, spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) add(name, parent int32, calls int, start, end time.Time) {
	b.spans = append(b.spans, span{
		name: name, parent: parent, op: int32(len(b.spans)), calls: int32(calls),
		start: int64(start.Sub(b.origin)), end: int64(end.Sub(b.origin)),
	})
}

func (t *tracer) count() int {
	n := len(t.roots)
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write stores the spans as one JSON document: a name table and one array per
// span, in the order of the "fields" list.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"names":[`, workload, seed)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"fields":["buffer","parent_root","name","op","calls","start_ns","end_ns"],"spans":[`)
	var line []byte
	first := true
	emit := func(buf int, s span) {
		line = line[:0]
		if !first {
			line = append(line, ',')
		}
		first = false
		line = append(line, "\n["...)
		for i, v := range [7]int64{int64(buf), int64(s.parent), int64(s.name), int64(s.op), int64(s.calls), s.start, s.end} {
			if i > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, ']')
		w.Write(line)
	}
	for i, s := range t.roots {
		s.op = int32(i)
		emit(-1, s)
	}
	for bi, b := range t.bufs {
		for _, s := range b.spans {
			emit(bi, s)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
