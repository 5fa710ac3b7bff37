package diffindex

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"diffindex/internal/cluster"
	"diffindex/internal/kv"
)

func TestHealthOKOnCleanDB(t *testing.T) {
	db := openTestDB(t, 3)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	if _, err := cl.Put("t", []byte("r1"), Cols{"a": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	h := db.Health()
	if h.Status != HealthOK {
		t.Fatalf("clean DB health = %q, reasons %v", h.Status, h.Reasons)
	}
	if h.LiveServers != 3 || h.TotalServers != 3 {
		t.Fatalf("servers %d/%d", h.LiveServers, h.TotalServers)
	}
	if h.ScrubCorruptions != 0 || len(h.Reasons) != 0 {
		t.Fatalf("unexpected findings: %+v", h)
	}
}

func TestHealthDegradedOnCrashedServer(t *testing.T) {
	db := openTestDB(t, 3)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CrashServer("rs2"); err != nil {
		t.Fatal(err)
	}
	h := db.Health()
	if h.Status != HealthDegraded {
		t.Fatalf("health with crashed server = %q, reasons %v", h.Status, h.Reasons)
	}
	if h.LiveServers != 2 {
		t.Fatalf("LiveServers = %d, want 2", h.LiveServers)
	}
	if err := db.RestartServer("rs2"); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.Status != HealthOK {
		t.Fatalf("health after restart = %q, reasons %v", h.Status, h.Reasons)
	}
}

func TestHealthDegradedOnUnrepairedViolations(t *testing.T) {
	// A confirmed violation that the sweep repairs leaves found == repaired:
	// health stays ok. (The degraded case — repairs failing — needs a mid-
	// sweep fault and is exercised by the chaos harness.)
	db := openTestDB(t, 3)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", []string{"a"}, SyncFull, nil); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("c")
	for _, r := range []string{"r1", "r2", "r3"} {
		if _, err := cl.Put("t", []byte(r), Cols{"a": []byte("v-" + r)}); err != nil {
			t.Fatal(err)
		}
	}
	// Inject a lost index insert through the raw path, then sweep.
	c, _ := db.Internal()
	raw := cluster.NewClient(c, "raw")
	row := []byte("r9")
	if err := raw.MultiApply("t", []kv.Cell{{
		Key: kv.BaseKey(row, []byte("a")), Value: []byte("lost"), Ts: 999999, Kind: kv.KindPut,
	}}); err != nil {
		t.Fatal(err)
	}
	reps, err := cl.VerifyIndexes("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Missing != 1 || reps[0].Repaired != 1 {
		t.Fatalf("reports: %+v", reps)
	}
	h := db.Health()
	if h.IndexViolationsFound != 1 || h.IndexViolationsRepaired != 1 {
		t.Fatalf("violation counters: %+v", h)
	}
	if h.Status != HealthOK {
		t.Fatalf("repaired violations must not degrade health: %q %v", h.Status, h.Reasons)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	db := openTestDB(t, 3)
	if err := db.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz returned %d", res.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK || h.TotalServers != 3 {
		t.Fatalf("decoded health: %+v", h)
	}

	// Crash every server: the endpoint must flip to 503. Crashing the last
	// server returns ErrNoLiveServers (nowhere to reassign its regions) but
	// still takes it down, which is the state we want.
	for _, id := range db.Servers() {
		_ = db.CrashServer(id)
	}
	res2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz returned %d", res2.StatusCode)
	}
	var h2 Health
	if err := json.NewDecoder(res2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Status != HealthUnhealthy || len(h2.Reasons) == 0 {
		t.Fatalf("decoded unhealthy health: %+v", h2)
	}
}
