// Adaptive scheme selection: the paper's future-work extension ("we plan to
// investigate workload-aware scheme selection", §10) implemented on top of
// the scheme spectrum. An advisor observes each index's read/write ratio
// and recommends a scheme per the paper's §3.4 principles; switching an
// index away from sync-insert first runs the verify sweep — the paper's
// cleanse utility (§7) — so no stale entries are orphaned.
package main

import (
	"fmt"

	"diffindex"
)

func main() {
	db := diffindex.Open(diffindex.Options{Servers: 3})
	defer db.Close()

	if err := db.CreateTable("events", nil); err != nil {
		panic(err)
	}
	// Start pessimistically with sync-insert (cheap updates, consistency
	// kept via read repair).
	if err := db.CreateIndex("events", []string{"kind"}, diffindex.SyncInsert, nil); err != nil {
		panic(err)
	}
	advisor := db.NewAdvisor()
	cl := db.NewClient("app")

	// Phase 1: ingest-heavy. Many writes, few reads.
	for i := 0; i < 300; i++ {
		if _, err := cl.Put("events", []byte(fmt.Sprintf("ev%05d", i)), diffindex.Cols{
			"kind": []byte(fmt.Sprintf("kind%d", i%5)),
		}); err != nil {
			panic(err)
		}
	}
	cl.GetByIndex("events", []string{"kind"}, []byte("kind0"))
	u, r := advisor.Observed("events", "kind")
	rec := advisor.Recommend("events", []string{"kind"}, diffindex.Requirements{NeedConsistency: true})
	fmt.Printf("phase 1: observed %d updates / %d reads → recommend %s\n  rationale: %s\n",
		u, r, rec.Scheme, rec.Rationale)

	// Phase 2: the workload flips to read-heavy dashboards.
	for i := 0; i < 800; i++ {
		if _, err := cl.GetByIndex("events", []string{"kind"}, []byte(fmt.Sprintf("kind%d", i%5))); err != nil {
			panic(err)
		}
	}
	u, r = advisor.Observed("events", "kind")
	rec = advisor.Recommend("events", []string{"kind"}, diffindex.Requirements{NeedConsistency: true})
	fmt.Printf("phase 2: observed %d updates / %d reads → recommend %s\n  rationale: %s\n",
		u, r, rec.Scheme, rec.Rationale)

	// Apply the recommendation live. Because the index leaves sync-insert,
	// the switch sweeps out stale entries first (update churn left some).
	for i := 0; i < 50; i++ { // create some stale entries
		cl.Put("events", []byte(fmt.Sprintf("ev%05d", i)), diffindex.Cols{
			"kind": []byte("rekinded"),
		})
	}
	reports, err := cl.VerifyIndexes("events")
	if err != nil {
		panic(err)
	}
	fmt.Printf("manual verify sweep: %d stale entries found, %d repaired\n", reports[0].Stale, reports[0].Repaired)

	if _, err := advisor.Apply(cl, "events", []string{"kind"}, diffindex.Requirements{NeedConsistency: true}); err != nil {
		panic(err)
	}
	fmt.Printf("index switched to %s; reads no longer double-check\n", rec.Scheme)

	// Verify correctness after the switch.
	hits, err := cl.GetByIndex("events", []string{"kind"}, []byte("rekinded"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("kind=rekinded → %d rows (expected 50)\n", len(hits))
}
