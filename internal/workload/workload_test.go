package workload

import (
	"math/rand"
	"sort"
	"testing"

	"diffindex"
)

func TestZipfianSkewAndRange(t *testing.T) {
	const n = 1000
	z := NewZipfian(n, ZipfianConstant, rand.New(rand.NewSource(1)))
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= n {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must dominate: with θ=0.99 and n=1000 it gets ≈13% of draws.
	if counts[0] < draws/20 {
		t.Errorf("item 0 drew only %d/%d", counts[0], draws)
	}
	if counts[0] < counts[n/2]*10 {
		t.Errorf("insufficient skew: head=%d mid=%d", counts[0], counts[n/2])
	}
}

func TestUniformCoverage(t *testing.T) {
	g := NewUniform(100, 7)
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Errorf("uniform covered only %d/100 values", len(seen))
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	g := NewScrambledZipfian(1000, 3)
	seen := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		v := g.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("scrambled out of range: %d", v)
		}
		seen[v] = true
	}
	// The hot set must not be clustered at the low ordinals.
	low := 0
	for v := range seen {
		if v < 100 {
			low++
		}
	}
	if low > len(seen)/2 {
		t.Errorf("scrambled zipfian clustered: %d/%d in the first decile", low, len(seen))
	}
}

// chooser is what every key-chooser in this package implements.
type chooser interface{ Next() int64 }

func TestGeneratorDeterminism(t *testing.T) {
	for d, pair := range map[string][2]chooser{
		"uniform": {NewUniform(500, 42), NewUniform(500, 42)},
		"zipfian": {NewScrambledZipfian(500, 42), NewScrambledZipfian(500, 42)},
	} {
		for i := 0; i < 10000; i++ {
			if pair[0].Next() != pair[1].Next() {
				t.Fatalf("%s: same-seed generators diverged at draw %d", d, i)
			}
		}
	}
}

// TestGeneratorGoldenSequences pins the exact first draws of every
// distribution for a fixed seed. Seed determinism is what makes chaos
// schedules and benchmark sweeps reproducible ("same seed, same keys"), so
// any change to a chooser's draw sequence — reordering its internal PRNG
// consumption, changing the scramble hash, touching the zipfian constants —
// must show up as a deliberate golden update in review, not as silent drift.
func TestGeneratorGoldenSequences(t *testing.T) {
	for _, g := range []struct {
		name string
		gen  chooser
		want []int64
	}{
		{"uniform", NewUniform(1000, 42), []int64{675, 411, 760, 9, 657, 261, 247, 208, 868, 184, 314, 41}},
		{"zipfian", NewScrambledZipfian(1000, 42), []int64{30, 202, 842, 611, 202, 30, 408, 30, 30, 816, 145, 611}},
	} {
		for i, w := range g.want {
			if got := g.gen.Next(); got != w {
				t.Errorf("%s draw %d = %d, want %d (seeded sequence drifted)", g.name, i, got, w)
			}
		}
	}
}

// TestScrambledZipfianHotspotSkew checks the scrambled zipfian keeps the
// zipfian *popularity mass* (a small hot set dominates) while spreading that
// hot set across the key space. θ=0.99 over n=10000 gives the most popular
// item 1/ζ_n(θ) ≈ 9.8% of draws; the top 1% of keys should carry about half
// the mass (uniform would give them 1%).
func TestScrambledZipfianHotspotSkew(t *testing.T) {
	const (
		n     = 10000
		draws = 200000
	)
	g := NewScrambledZipfian(n, 7)
	counts := make(map[int64]int)
	for i := 0; i < draws; i++ {
		v := g.Next()
		if v < 0 || v >= n {
			t.Fatalf("scrambled zipfian out of range: %d", v)
		}
		counts[v]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))

	if top := float64(freqs[0]) / draws; top < 0.05 || top > 0.15 {
		t.Errorf("hottest key drew %.1f%% of ops, want ≈9.8%% (zipfian mass lost)", top*100)
	}
	topMass := 0
	for i := 0; i < n/100 && i < len(freqs); i++ {
		topMass += freqs[i]
	}
	if m := float64(topMass) / draws; m < 0.4 {
		t.Errorf("top 1%% of keys drew only %.1f%% of ops, want ≈53%% (skew too flat)", m*100)
	} else if m > 0.7 {
		t.Errorf("top 1%% of keys drew %.1f%% of ops, want ≈53%% (skew too sharp)", m*100)
	}
	// The scramble must spread the hot set: a zipfian this skewed still
	// touches most of a 10k key space in 200k draws once hashed.
	if len(counts) < n/2 {
		t.Errorf("only %d/%d distinct keys drawn (hot set clustered, not scrambled)", len(counts), n)
	}
}

func TestItemSchemaShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols := ItemRow(7, rng)
	if len(cols) != 2+FillerColumns {
		t.Errorf("ItemRow has %d columns", len(cols))
	}
	size := 0
	for _, v := range cols {
		size += len(v)
	}
	if size < 800 || size > 1200 {
		t.Errorf("row payload = %d bytes, want ≈1KB", size)
	}
	if string(ItemKey(3)) >= string(ItemKey(10)) {
		t.Error("item keys must sort numerically")
	}
	if string(PriceValue(5)) >= string(PriceValue(50)) {
		t.Error("price values must sort numerically")
	}
	if string(TitleValue(1)) == string(UpdatedTitleValue(1, 1)) {
		t.Error("updated title must differ from the initial title")
	}
}

func TestSplitsAreSortedAndSized(t *testing.T) {
	for _, splits := range [][][]byte{
		TableSplits(1000, 4),
		TitleIndexSplits(1000, 4),
		PriceIndexSplits(1000, 4),
	} {
		if len(splits) != 3 {
			t.Fatalf("got %d splits, want 3", len(splits))
		}
		for i := 1; i < len(splits); i++ {
			if string(splits[i-1]) >= string(splits[i]) {
				t.Fatal("splits unsorted")
			}
		}
	}
	if TableSplits(1000, 1) != nil || TitleIndexSplits(10, 0) != nil || PriceIndexSplits(10, 1) != nil {
		t.Error("single-region split lists must be nil")
	}
}

func TestSetupLoadAndRun(t *testing.T) {
	db := diffindex.Open(diffindex.Options{Servers: 3})
	defer db.Close()
	const records = 200
	if err := Setup(db, records, 3, int(diffindex.SyncInsert), int(diffindex.SyncFull), 2); err != nil {
		t.Fatal(err)
	}
	cl := db.NewClient("verify")
	// Loaded rows are present and indexed.
	row, err := cl.GetRow(TableName, ItemKey(42))
	if err != nil || row == nil || string(row[TitleColumn]) != string(TitleValue(42)) {
		t.Fatalf("row 42 = %v err=%v", row, err)
	}
	hits, err := cl.GetByIndex(TableName, []string{TitleColumn}, TitleValue(42))
	if err != nil || len(hits) != 1 {
		t.Fatalf("title index hits = %v err=%v", hits, err)
	}
}

// TestPickOpFollowsMix: every kind in the mix is drawn at about its share,
// and the unassigned mass goes to updates.
func TestPickOpFollowsMix(t *testing.T) {
	mix := map[OpKind]float64{OpIndexRead: 0.3, OpRangeRead: 0.1, OpRowRead: 0.1}
	rng := rand.New(rand.NewSource(11))
	const draws = 10000
	counts := map[OpKind]int{}
	for i := 0; i < draws; i++ {
		counts[PickOp(rng, mix)]++
	}
	want := map[OpKind]float64{OpUpdate: 0.5, OpIndexRead: 0.3, OpRangeRead: 0.1, OpRowRead: 0.1}
	for k, p := range want {
		if got := float64(counts[k]) / draws; got < p-0.03 || got > p+0.03 {
			t.Errorf("%s drawn %.3f of the time, want ≈%.2f", k, got, p)
		}
	}
	if PickOp(rng, nil) != OpUpdate {
		t.Error("an empty mix must pick updates")
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpUpdate: "update", OpIndexRead: "index-read",
		OpRangeRead: "range-read", OpRowRead: "row-read",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown op must render")
	}
}
