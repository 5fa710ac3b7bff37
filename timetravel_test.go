package diffindex

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// collectChanges drains feed events until want records arrive or the
// timeout elapses.
func collectChanges(t *testing.T, feed *ChangeFeed, want int, timeout time.Duration) []ChangeRecord {
	t.Helper()
	var out []ChangeRecord
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case rec, ok := <-feed.Events():
			if !ok {
				t.Fatalf("feed closed after %d/%d records: %v", len(out), want, feed.Err())
			}
			out = append(out, rec)
		case <-deadline:
			t.Fatalf("timed out with %d/%d records", len(out), want)
		}
	}
	return out
}

// TestClientGetAsOf is the public-API golden test for time-travel reads:
// values read as-of past timestamps must match what reads returned when
// those timestamps were current, across overwrites, deletes and a flush.
func TestClientGetAsOf(t *testing.T) {
	db := Open(Options{Servers: 2, MaxVersions: 10})
	defer db.Close()
	if err := db.CreateTable("kvstore", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("app")

	ts1, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	ts2, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte("v2")})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ts3, err := cl.Delete("kvstore", []byte("r1"), []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	ts4, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte("v4")})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		ts    int64
		want  string
		exist bool
	}{
		{ts1, "v1", true},
		{ts2, "v2", true},
		{ts3, "", false}, // deleted at ts3
		{ts4, "v4", true},
	}
	for _, tc := range cases {
		v, _, ok, err := cl.GetAsOf("kvstore", []byte("r1"), "c", tc.ts)
		if err != nil {
			t.Fatalf("GetAsOf(ts=%d): %v", tc.ts, err)
		}
		if ok != tc.exist || (ok && string(v) != tc.want) {
			t.Errorf("GetAsOf(ts=%d) = (%q, %v), want (%q, %v)", tc.ts, v, ok, tc.want, tc.exist)
		}
	}

	// Rows as-of: the whole row reflects the chosen instant.
	cols, err := cl.GetRowAsOf("kvstore", []byte("r1"), ts3)
	if err != nil {
		t.Fatal(err)
	}
	if cols != nil {
		t.Errorf("GetRowAsOf at deletion = %v, want nil", cols)
	}
	rows, err := cl.ScanAsOf("kvstore", nil, nil, ts2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || string(rows[0].Cols["c"]) != "v2" {
		t.Errorf("ScanAsOf(ts2) = %v", rows)
	}
}

// TestClientGetAsOfHistoryTrimmed drives enough overwrites through
// compaction that MaxVersions retention discards the version an old
// timestamp would need, and checks the read reports ErrHistoryTrimmed
// instead of guessing.
func TestClientGetAsOfHistoryTrimmed(t *testing.T) {
	db := Open(Options{Servers: 1, MaxVersions: 2})
	defer db.Close()
	if err := db.CreateTable("kvstore", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("app")
	ts0, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte("v0")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	c, m := db.Internal()
	_ = m
	c.WaitCompactions()

	_, _, _, err = cl.GetAsOf("kvstore", []byte("r1"), "c", ts0)
	if !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("GetAsOf(trimmed ts) err = %v, want ErrHistoryTrimmed", err)
	}
}

// TestChangesFeed checks the CDC feed end to end: every committed mutation
// arrives with its row, column, value, delete flag and a frame-aligned
// position; Positions resumes without re-delivery of consumed records; the
// CDC metrics count what flowed.
func TestChangesFeed(t *testing.T) {
	db := Open(Options{Servers: 2, WALRetainSegments: -1})
	defer db.Close()
	if err := db.CreateTable("orders", [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("app")

	feed, err := db.Changes("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	if _, err := cl.Put("orders", []byte("a1"), Cols{"item": []byte("x"), "qty": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("orders", []byte("z9"), Cols{"item": []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Delete("orders", []byte("a1"), []string{"qty"}); err != nil {
		t.Fatal(err)
	}

	recs := collectChanges(t, feed, 4, 5*time.Second) // 2+1 puts + 1 delete
	// The counters are bumped at hand-off, so the instant the 4th record is
	// in the consumer's hands they already cover it.
	var gotRecs int64
	for _, c := range db.MetricsSnapshot().Counters {
		if c.Name == "diffindex_cdc_records_total" {
			gotRecs += c.Value
		}
	}
	if gotRecs < 4 {
		t.Errorf("diffindex_cdc_records_total = %d right after the 4th receive, want >= 4", gotRecs)
	}
	byKey := map[string]ChangeRecord{}
	for _, r := range recs {
		if r.Table != "orders" {
			t.Errorf("record table = %q", r.Table)
		}
		byKey[string(r.Row)+"/"+r.Column+fmt.Sprintf("/%v", r.Delete)] = r
	}
	if r, ok := byKey["a1/item/false"]; !ok || string(r.Value) != "x" {
		t.Errorf("missing or wrong a1/item put: %+v", r)
	}
	if r, ok := byKey["z9/item/false"]; !ok || string(r.Value) != "y" {
		t.Errorf("missing or wrong z9/item put: %+v", r)
	}
	if r, ok := byKey["a1/qty/true"]; !ok || r.Value != nil {
		t.Errorf("missing or wrong a1/qty delete: %+v", r)
	}
	if feed.GapSegments() != 0 {
		t.Errorf("gap = %d on a fresh feed", feed.GapSegments())
	}

	// Resume: a feed started from the reached positions sees only new writes.
	// Positions are final once the stopped feed's Events has closed (a pump
	// publishes a batch's position after handing the batch off).
	feed.Close()
	for range feed.Events() {
	}
	resumed, err := db.ChangesFrom("orders", feed.Positions())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if _, err := cl.Put("orders", []byte("b2"), Cols{"item": []byte("z")}); err != nil {
		t.Fatal(err)
	}
	got := collectChanges(t, resumed, 1, 5*time.Second)
	if string(got[0].Row) != "b2" || got[0].Column != "item" {
		t.Errorf("resumed feed delivered %+v, want the b2 put first", got[0])
	}
}

// TestChangesFeedSurvivesFlush checks that a feed keeps streaming across a
// flush (which rolls, checkpoints and would normally truncate the WAL): the
// cursor pin holds unconsumed segments, so nothing is lost.
func TestChangesFeedSurvivesFlush(t *testing.T) {
	db := Open(Options{Servers: 1}) // default retention: flushes truncate
	defer db.Close()
	if err := db.CreateTable("orders", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("app")

	feed, err := db.Changes("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := cl.Put("orders", []byte(fmt.Sprintf("r%03d", i)), Cols{"c": []byte("v")}); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs := collectChanges(t, feed, n, 5*time.Second)
	seen := map[string]bool{}
	for _, r := range recs {
		seen[string(r.Row)] = true
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("r%03d", i)] {
			t.Errorf("row r%03d never arrived", i)
		}
	}
	if feed.GapSegments() != 0 {
		t.Errorf("gap = %d; the pin should have held every segment", feed.GapSegments())
	}
}
