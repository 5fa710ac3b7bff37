package wal

import (
	"fmt"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

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

// TestCheckpointBoundsReplay: records in segments below the flush checkpoint
// are durable in SSTables and must not be replayed; records at or past it
// must be.
func TestCheckpointBoundsReplay(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	appendN(t, l, 0, 5)
	boundary, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(boundary); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed := mustOpen(t, fs, "r")
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records, want the 3 past the checkpoint", len(replayed))
	}
	for i, r := range replayed {
		if want := fmt.Sprintf("k%04d", 5+i); string(r.Key) != want {
			t.Errorf("replayed[%d].Key = %q, want %q", i, r.Key, want)
		}
	}
}

// TestUnknownMetaKindSkipped: a valid frame of a meta kind this build does
// not know (anything in the reserved range past KindCheckpoint) sitting
// between data records is skipped by replay and by tailing — every data
// record on both sides of it is delivered and the meta frame never is.
func TestUnknownMetaKindSkipped(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	appendN(t, l, 0, 3)
	if err := l.Append(Record{Kind: 0x11, Value: []byte("not a cell")}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)

	check := func(what string, recs []Record) {
		t.Helper()
		if len(recs) != 6 {
			t.Fatalf("%s delivered %d records, want the 6 data records", what, len(recs))
		}
		for i, r := range recs {
			if IsMeta(r.Kind) {
				t.Errorf("%s surfaced meta frame %+v", what, r)
			}
			if want := fmt.Sprintf("k%04d", i); string(r.Key) != want {
				t.Errorf("%s record %d key = %q, want %q", what, i, r.Key, want)
			}
		}
	}
	entries, _, gap, err := l.TailLog(Pos{}, 100)
	if err != nil || gap != 0 {
		t.Fatalf("TailLog: gap=%d err=%v", gap, err)
	}
	tailed := make([]Record, len(entries))
	for i, e := range entries {
		tailed[i] = e.Record
	}
	check("tail", tailed)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replayed := mustOpen(t, fs, "r")
	check("replay", replayed)
}

// TestTruncateBeforeRetentionFloor: a log opened with NeverTruncate keeps
// every segment through truncation, so the full history stays tailable.
func TestTruncateBeforeRetentionFloor(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := OpenWith(fs, "r", ReplayConfig{NeverTruncate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendN(t, l, i*3, 3)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.TruncateBefore(l.ActiveSegment())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("TruncateBefore removed %d segments from a never-truncating log, want 0", removed)
	}
	entries, _, gap, err := l.TailLog(Pos{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 0 || len(entries) != 12 {
		t.Errorf("tail after truncation: gap=%d, %d records; want gap 0 and all 12", gap, len(entries))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailLogResumeAndGap: TailLog pages through committed records across
// segment rolls with resumable positions, skips meta records, and reports
// history truncated below a resume position — the log start or a position
// inside a removed segment — as a gap of that many segments.
func TestTailLogResumeAndGap(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	appendN(t, l, 0, 4)
	boundary, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(boundary); err != nil {
		t.Fatal(err) // meta record: must be invisible to tailing
	}
	appendN(t, l, 4, 4)
	if _, err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 8, 2)

	var got []Entry
	pos := Pos{}
	for {
		entries, next, gap, err := l.TailLog(pos, 3) // page size 3: forces resumes
		if err != nil {
			t.Fatal(err)
		}
		if gap != 0 {
			t.Fatalf("gap = %d on an untruncated log", gap)
		}
		if len(entries) == 0 {
			break
		}
		got = append(got, entries...)
		pos = next
	}
	if len(got) != 10 {
		t.Fatalf("tailed %d records, want 10 (checkpoint meta must be skipped)", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("k%04d", i); string(e.Record.Key) != want {
			t.Errorf("entry %d key = %q, want %q (log order)", i, e.Record.Key, want)
		}
		if e.Pos.Seg == 0 {
			t.Errorf("entry %d has zero segment in position", i)
		}
	}

	// Truncate segment by segment: every resume position below the oldest
	// survivor reports the segments it can never see, then tails the rest.
	for _, tc := range []struct {
		keep uint64 // TruncateBefore bound
		from Pos
		gap  int
		left int // records still tailable
	}{
		{keep: 2, from: Pos{}, gap: 1, left: 6},
		{keep: 2, from: got[1].Pos, gap: 1, left: 6}, // mid segment 1
		{keep: 3, from: Pos{}, gap: 2, left: 2},
		{keep: 3, from: got[5].Pos, gap: 1, left: 2}, // mid segment 2
	} {
		if _, err := l.TruncateBefore(tc.keep); err != nil {
			t.Fatal(err)
		}
		entries, _, gap, err := l.TailLog(tc.from, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if gap != tc.gap || len(entries) != tc.left {
			t.Errorf("truncate before %d, tail from %s: gap=%d, %d records; want gap %d, %d records",
				tc.keep, tc.from, gap, len(entries), tc.gap, tc.left)
		}
		if len(entries) > 0 && string(entries[0].Record.Key) != string(got[len(got)-tc.left].Record.Key) {
			t.Errorf("truncate before %d, tail from %s starts at %q, want the oldest survivor %q",
				tc.keep, tc.from, entries[0].Record.Key, got[len(got)-tc.left].Record.Key)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
