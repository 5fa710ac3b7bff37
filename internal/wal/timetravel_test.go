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

// TestTruncateBeforeRetentionFloor: RetainSegments keeps the newest N
// sealed segments through truncation; -1 disables truncation entirely.
func TestTruncateBeforeRetentionFloor(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	for i := 0; i < 4; i++ {
		appendN(t, l, i*3, 3)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	active := l.ActiveSegment() // 5: four sealed segments behind it

	l.SetRetention(2)
	removed, err := l.TruncateBefore(active)
	if err != nil {
		t.Fatal(err)
	}
	// Floor = active-2 = 3: segments 1 and 2 go, 3 and 4 survive.
	if removed != 2 {
		t.Errorf("TruncateBefore removed %d segments, want 2 under retention 2", removed)
	}
	_, _, gap, err := l.TailLog(Pos{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 2 {
		t.Errorf("tail gap = %d after truncation, want 2", gap)
	}

	l.SetRetention(-1)
	removed, err = l.TruncateBefore(active)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("TruncateBefore removed %d segments under -1 retention, want 0", removed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPinBlocksTruncation: a pin (a CDC cursor) lowers the truncation bound
// to the pinned segment until released.
func TestPinBlocksTruncation(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	for i := 0; i < 3; i++ {
		appendN(t, l, i*2, 2)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	release := l.Pin(2)
	removed, err := l.TruncateBefore(l.ActiveSegment())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 { // only segment 1: the pin holds 2 and above
		t.Errorf("removed %d segments with pin at 2, want 1", removed)
	}
	release()
	release() // idempotent
	removed, err = l.TruncateBefore(l.ActiveSegment())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // segments 2 and 3
		t.Errorf("removed %d segments after release, want 2", removed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailLogResumeAndGap: TailLog pages through committed records with
// resumable positions, skips meta records, and reports history truncated
// below a resume position as a gap.
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
	if len(got) != 8 {
		t.Fatalf("tailed %d records, want 8 (checkpoint meta must be skipped)", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("k%04d", i); string(e.Record.Key) != want {
			t.Errorf("entry %d key = %q, want %q (log order)", i, e.Record.Key, want)
		}
		if e.Pos.Seg == 0 {
			t.Errorf("entry %d has zero segment in position", i)
		}
	}

	// Truncate the first segment away: a fresh tail must report the gap.
	if _, err := l.TruncateBefore(2); err != nil {
		t.Fatal(err)
	}
	entries, _, gap, err := l.TailLog(Pos{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 1 {
		t.Errorf("gap = %d after truncating one segment, want 1", gap)
	}
	if len(entries) != 4 {
		t.Errorf("tailed %d records after truncation, want the 4 surviving", len(entries))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorPinsAndFollowsRolls: a cursor's pin protects its unread
// segments from truncation, Next follows rolls forward, and Close releases
// the pin so truncation proceeds.
func TestCursorPinsAndFollowsRolls(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	appendN(t, l, 0, 3)
	cur := l.NewCursor(Pos{})

	// Roll + truncate while the cursor still points at segment 1: the pin
	// must keep it.
	if _, err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	removed, err := l.TruncateBefore(l.ActiveSegment())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("truncation removed %d segments out from under a cursor", removed)
	}

	var got []Entry
	for {
		entries, err := cur.Next(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			break
		}
		got = append(got, entries...)
	}
	if len(got) != 6 {
		t.Fatalf("cursor read %d records, want 6 across the roll", len(got))
	}
	if cur.GapSegments() != 0 {
		t.Errorf("cursor gap = %d, want 0", cur.GapSegments())
	}
	if cur.Lag() != 0 {
		t.Errorf("cursor lag = %d segments after catching up, want 0", cur.Lag())
	}

	cur.Close()
	removed, err = l.TruncateBefore(l.ActiveSegment())
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("truncation removed nothing after the cursor released its pin")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorStartsWithGapAfterTruncation: a cursor opened below the oldest
// retained segment reports how much history it can never see.
func TestCursorStartsWithGapAfterTruncation(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := mustOpen(t, fs, "r")
	for i := 0; i < 3; i++ {
		appendN(t, l, i*2, 2)
		if _, err := l.Roll(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	cur := l.NewCursor(Pos{})
	defer cur.Close()
	entries, err := cur.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if cur.GapSegments() != 2 {
		t.Errorf("cursor gap = %d, want 2 truncated segments", cur.GapSegments())
	}
	if len(entries) != 2 {
		t.Errorf("cursor read %d surviving records, want 2", len(entries))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
