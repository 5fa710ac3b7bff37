package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

func mustOpen(t *testing.T, fs vfs.FS, dir string) (*Log, []Record) {
	t.Helper()
	var replayed []Record
	l, err := Open(fs, dir, func(r Record) { replayed = append(replayed, r) })
	if err != nil {
		t.Fatal(err)
	}
	return l, replayed
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := l.Append(Record{
			Key:   []byte(fmt.Sprintf("k%04d", i)),
			Value: []byte(fmt.Sprintf("v%04d", i)),
			Ts:    kv.Timestamp(i + 1),
			Kind:  kv.KindPut,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func replayedKeys(recs []Record) string {
	var keys []string
	for _, r := range recs {
		keys = append(keys, string(r.Key))
	}
	return fmt.Sprint(keys)
}

func TestAppendAndReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	l, replayed := mustOpen(t, fs, "region1")
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d records", len(replayed))
	}
	want := []Record{
		{Key: []byte("k1"), Value: []byte("v1"), Ts: 1, Kind: kv.KindPut},
		{Key: []byte("k2"), Value: nil, Ts: 2, Kind: kv.KindDelete},
		{Key: []byte("k1"), Value: []byte("v2"), Ts: 3, Kind: kv.KindPut},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got := mustOpen(t, fs, "region1")
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) ||
			got[i].Ts != want[i].Ts || got[i].Kind != want[i].Kind {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendBatch(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("v"), Ts: kv.Timestamp(i + 1)})
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got := mustOpen(t, fs, "r")
	if len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
}

func TestRollAndTruncate(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	l.Append(Record{Key: []byte("old"), Value: []byte("1"), Ts: 1})
	keep, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Key: []byte("new"), Value: []byte("2"), Ts: 2})
	removed, err := l.TruncateBefore(keep)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("TruncateBefore removed %d segments, want 1", removed)
	}
	l.Close()

	_, got := mustOpen(t, fs, "r")
	if len(got) != 1 || string(got[0].Key) != "new" {
		t.Fatalf("after truncate replayed %+v, want only 'new'", got)
	}
}

func TestReplayAcrossMultipleSegments(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 5; i++ {
			l.Append(Record{Key: []byte(fmt.Sprintf("s%d-k%d", seg, i)), Ts: kv.Timestamp(seg*10 + i + 1)})
		}
		if seg < 2 {
			if _, err := l.Roll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()
	_, got := mustOpen(t, fs, "r")
	if len(got) != 15 {
		t.Fatalf("replayed %d records, want 15", len(got))
	}
	// Records must replay in append order across segments.
	if string(got[0].Key) != "s0-k0" || string(got[14].Key) != "s2-k4" {
		t.Errorf("replay order wrong: first=%s last=%s", got[0].Key, got[14].Key)
	}
}

func TestTornWriteTruncatesTail(t *testing.T) {
	// A torn write leaves a header whose payload never made it to disk: a
	// plausible one, or garbage declaring ~2 GiB. Either is the segment's
	// tail, and recovery must not size a buffer from the declared length.
	for _, torn := range [][]byte{
		{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0x00, 0x00, 0x00},
		{0xDE, 0xAD, 0xBE, 0xEF, 0xF0, 0xFF, 0xFF, 0x7F},
	} {
		fs := vfs.NewMemFS()
		l, _ := mustOpen(t, fs, "r")
		l.Append(Record{Key: []byte("good"), Value: []byte("1"), Ts: 1})
		seg := l.ActiveSegment()
		l.Close()

		f, err := fs.Open(fmt.Sprintf("r/%020d.wal", seg))
		if err != nil {
			t.Fatal(err)
		}
		f.Write(torn)
		f.Close()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, got := mustOpen(t, fs, "r")
		runtime.ReadMemStats(&after)
		if len(got) != 1 || string(got[0].Key) != "good" {
			t.Fatalf("torn tail %x not dropped by replay: %+v", torn, got)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("recovery past torn header %x allocated %d bytes", torn, grew)
		}
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	l.Append(Record{Key: []byte("a"), Value: []byte("1"), Ts: 1})
	l.Append(Record{Key: []byte("b"), Value: []byte("2"), Ts: 2})
	seg := l.ActiveSegment()
	l.Close()

	// Flip a byte in the second record's payload. MemFS shares the backing
	// array across handles, so mutate through ReadAt's copy trick: rewrite
	// the whole file with one corrupted byte.
	name := fmt.Sprintf("r/%020d.wal", seg)
	f, _ := fs.Open(name)
	sz, _ := f.Size()
	data := make([]byte, sz)
	f.ReadAt(data, 0)
	f.Close()
	data[len(data)-1] ^= 0xFF
	fs.Remove(name)
	g, _ := fs.Create(name)
	g.Write(data)
	g.Close()

	_, got := mustOpen(t, fs, "r")
	if len(got) != 1 || string(got[0].Key) != "a" {
		t.Fatalf("replay past corrupt record: %+v", got)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(key, value []byte, ts int64, del bool) bool {
		if ts < 0 {
			ts = -ts
		}
		kind := kv.KindPut
		if del {
			kind = kv.KindDelete
		}
		in := Record{Key: key, Value: value, Ts: ts, Kind: kind}
		payloadBuf := appendRecord(nil, in)
		got, err := decodePayload(payloadBuf[8:])
		if err != nil {
			return false
		}
		// bytes.Equal treats nil and empty as equal, which matches the
		// store's semantics for tombstone/key-only values.
		return bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value) &&
			got.Ts == ts && got.Kind == kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePayloadErrors(t *testing.T) {
	bad := [][]byte{
		{},
		make([]byte, 8),
		append(make([]byte, 9), 0xFF), // huge keyLen varint then nothing
	}
	for _, p := range bad {
		if _, err := decodePayload(p); err == nil {
			t.Errorf("decodePayload(%x): want error", p)
		}
	}
}

func TestClosedLogErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	l.Close()
	if err := l.Append(Record{Key: []byte("k")}); err != ErrClosed {
		t.Errorf("Append after close: %v", err)
	}
	if _, err := l.Roll(); err != ErrClosed {
		t.Errorf("Roll after close: %v", err)
	}
	if _, err := l.TruncateBefore(1); err != ErrClosed {
		t.Errorf("TruncateBefore after close: %v", err)
	}
	if err := l.Close(); err != ErrClosed {
		t.Errorf("double Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := l.Append(Record{
					Key: []byte(fmt.Sprintf("w%d-%d", w, i)),
					Ts:  kv.Timestamp(w*per + i + 1),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	_, got := mustOpen(t, fs, "r")
	if len(got) != writers*per {
		t.Errorf("replayed %d, want %d", len(got), writers*per)
	}
}

func TestParseSegmentID(t *testing.T) {
	if id, ok := parseSegmentID("d", "d/00000000000000000042.wal"); !ok || id != 42 {
		t.Errorf("got (%d, %v)", id, ok)
	}
	for _, name := range []string{"other/1.wal", "d/abc.wal", "d/1.txt", "d1.wal"} {
		if _, ok := parseSegmentID("d", name); ok {
			t.Errorf("parseSegmentID(%q) unexpectedly ok", name)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	fs := vfs.NewMemFS()
	l, err := Open(fs, "bench", func(Record) {})
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Key: make([]byte, 32), Value: make([]byte, 1024), Ts: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
	}
}

func TestRecordCell(t *testing.T) {
	r := Record{Key: []byte("k"), Value: []byte("v"), Ts: 9, Kind: kv.KindDelete}
	c := r.Cell()
	if string(c.Key) != "k" || string(c.Value) != "v" || c.Ts != 9 || c.Kind != kv.KindDelete {
		t.Errorf("Cell = %+v", c)
	}
}

// FuzzReplaySegment feeds arbitrary bytes as a WAL segment: replay must not
// panic, only data kinds (puts and deletes) may reach Replay, and every
// record replay yields must round-trip through the encoder (i.e. only
// records that were validly encoded are surfaced).
func FuzzReplaySegment(f *testing.F) {
	good := appendRecord(nil, Record{Key: []byte("k"), Value: []byte("v"), Ts: 7, Kind: kv.KindPut})
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good[:5]...)) // torn tail
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x10, 0x00, 0x00, 0x00})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xF0, 0xFF, 0xFF, 0xFF}) // declares ~4 GiB
	// Non-data kinds: the flush-checkpoint frame older logs carried (kind
	// 0x10) in front of data, and an unknown kind between data.
	checkpoint := appendRecord(nil, Record{Kind: 0x10, Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
	f.Add(append(append([]byte{}, checkpoint...), good...))
	unknown := appendRecord(nil, Record{Kind: 0x11, Value: []byte("meta")})
	f.Add(append(append(append([]byte{}, good...), unknown...), good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMemFS()
		w, err := fs.Create("d/00000000000000000001.wal")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		var got []Record
		l, err := Open(fs, "d", func(r Record) { got = append(got, r) })
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		l.Close()
		for _, r := range got {
			if r.Kind != kv.KindPut && r.Kind != kv.KindDelete {
				t.Fatalf("non-data record reached Replay: %+v", r)
			}
			enc := appendRecord(nil, r)
			dec, err := decodePayload(enc[8:])
			if err != nil || !bytes.Equal(dec.Key, r.Key) || !bytes.Equal(dec.Value, r.Value) {
				t.Fatalf("yielded record does not round-trip: %+v", r)
			}
		}
	})
}

// TestAppendFormatsNoSegmentName: the write path formats the segment name
// only for an error, so a successful append of a pre-encoded frame costs
// no allocation beyond the file's own growth.
func TestAppendFormatsNoSegmentName(t *testing.T) {
	l, err := Open(vfs.NewMemFS(), "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	buf := appendRecord(nil, Record{Kind: kv.KindPut, Key: []byte("k"), Value: []byte("v"), Ts: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, err := l.appendLocked(buf, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 0.5 {
		t.Fatalf("%.3f allocs per append, want under 0.5", allocs)
	}
}

// TestNonDataKindStopsReplay: a checksum-valid frame whose kind is neither a
// put nor a delete — the flush-checkpoint kind (0x10) older logs carried, or
// any other — is a corrupt frame. Replay of its segment stops there, as at a
// torn tail; the records before it and every later segment replay.
func TestNonDataKindStopsReplay(t *testing.T) {
	for _, kind := range []kv.Kind{0x10, 0x11} {
		fs := vfs.NewMemFS()
		l, _ := mustOpen(t, fs, "r")
		appendN(t, l, 0, 3)
		if err := l.Append(Record{Kind: kind, Value: []byte("not a cell")}); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 3, 2)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 5, 2)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, replayed := mustOpen(t, fs, "r")
		if got, want := replayedKeys(replayed), "[k0000 k0001 k0002 k0005 k0006]"; got != want {
			t.Errorf("kind %#x: replayed %s, want %s", uint8(kind), got, want)
		}
	}
}

// reorderFS lists files in reverse name order, and refuses to remove the
// file named refuse.
type reorderFS struct {
	vfs.FS
	refuse string
}

func (fs *reorderFS) List(prefix string) ([]string, error) {
	names, err := fs.FS.List(prefix)
	slices.Reverse(names)
	return names, err
}

func (fs *reorderFS) Remove(name string) error {
	if name == fs.refuse {
		return errors.New("remove refused")
	}
	return fs.FS.Remove(name)
}

// TestTruncateBeforeLeavesSuffix: truncation removes segments oldest first,
// whatever order the file system lists them in, and stops at the first
// failed removal. What survives is a suffix of the log, so replay never
// sees a segment without the ones logged after it.
func TestTruncateBeforeLeavesSuffix(t *testing.T) {
	mem := vfs.NewMemFS()
	fs := &reorderFS{FS: mem, refuse: segmentName("r", 3)}
	l, _ := mustOpen(t, fs, "r")
	for seg := 0; seg < 4; seg++ {
		appendN(t, l, 2*seg, 2)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.TruncateBefore(5)
	if err == nil || removed != 2 {
		t.Fatalf("TruncateBefore(5) with segment 3 refused = (%d, %v), want 2 removed and an error", removed, err)
	}
	if ids, _ := segmentIDs(mem, "r"); fmt.Sprint(ids) != "[3 4 5]" {
		t.Fatalf("segments after a failed truncation = %v, want the suffix [3 4 5]", ids)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed := mustOpen(t, fs, "r")
	if got, want := replayedKeys(replayed), "[k0004 k0005 k0006 k0007]"; got != want {
		t.Errorf("replayed %s, want %s", got, want)
	}
}
