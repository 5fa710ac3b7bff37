package diffindex

import (
	"errors"
	"fmt"
	"testing"
)

// TestClientGetAsOf is the public-API golden test for time-travel reads:
// values read as-of past timestamps must match what reads returned when
// those timestamps were current, across overwrites, deletes and a flush.
func TestClientGetAsOf(t *testing.T) {
	db := Open(Options{Servers: 2})
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
// compaction that the version an old timestamp would need falls below the
// region's GC horizon, and checks that every as-of read there reports
// ErrHistoryTrimmed instead of guessing, while the newest answers exactly.
func TestClientGetAsOfHistoryTrimmed(t *testing.T) {
	db := Open(Options{Servers: 1})
	defer db.Close()
	if err := db.CreateTable("kvstore", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("app")
	ts0, err := cl.Put("kvstore", []byte("r1"), Cols{"c": []byte("v0")})
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i := 1; i <= 6; i++ {
		if last, err = cl.Put("kvstore", []byte("r1"), Cols{"c": []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		if err := db.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := db.Internal()
	c.WaitCompactions() // four flushed tables fill a tier: one round ran

	_, _, _, err = cl.GetAsOf("kvstore", []byte("r1"), "c", ts0)
	if !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("GetAsOf(trimmed ts) err = %v, want ErrHistoryTrimmed", err)
	}
	if _, err := cl.GetRowAsOf("kvstore", []byte("r1"), ts0); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("GetRowAsOf(trimmed ts) err = %v, want ErrHistoryTrimmed", err)
	}
	if _, err := cl.ScanAsOf("kvstore", nil, nil, ts0, 0); !errors.Is(err, ErrHistoryTrimmed) {
		t.Fatalf("ScanAsOf(trimmed ts) err = %v, want ErrHistoryTrimmed", err)
	}
	if v, _, ok, err := cl.GetAsOf("kvstore", []byte("r1"), "c", last); err != nil || !ok || string(v) != "v6" {
		t.Fatalf("GetAsOf(newest ts) = (%q, %v, %v), want v6", v, ok, err)
	}
}
