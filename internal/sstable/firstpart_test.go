package sstable

import (
	"fmt"
	"math/rand"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// randomStoreKey draws the kinds of user key a region store holds: base
// keys (row ⊕ column), index keys (value ⊕ row), one-part keys, local-index
// keys and raw keys, with parts full of the bytes the encoding escapes.
func randomStoreKey(rng *rand.Rand) []byte {
	alphabet := []byte{0x00, 0x01, 0xFF, 'a', 'm', 'z'}
	part := func() []byte {
		p := make([]byte, rng.Intn(5))
		for i := range p {
			p[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return p
	}
	switch rng.Intn(5) {
	case 0:
		return kv.BaseKey(part(), part())
	case 1:
		return kv.IndexKey(part(), part())
	case 2:
		return kv.EncodeComposite(part())
	case 3:
		return kv.LocalIndexKey("lidx_t_c", part(), part())
	default:
		return append(part(), 'r')
	}
}

// TestMayContainPrefixNoFalseNegatives checks the skip is safe: for every
// key a table holds, every prefix of it — a complete first part, which the
// filter answers, or any other, which only the bounds answer — is reported
// as possibly present, puts and tombstones alike.
func TestMayContainPrefixNoFalseNegatives(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.NewMemFS()
		seen := map[string]bool{}
		var cells []kv.Cell
		for len(cells) < 300 {
			k := randomStoreKey(rng)
			ts := kv.Timestamp(rng.Intn(3) + 1)
			id := fmt.Sprintf("%x/%d", k, ts)
			if seen[id] {
				continue
			}
			seen[id] = true
			kind := kv.KindPut
			if rng.Intn(4) == 0 {
				kind = kv.KindDelete
			}
			cells = append(cells, kv.Cell{Key: k, Value: []byte("v"), Ts: ts, Kind: kind})
		}
		buildTable(t, fs, "t.sst", cells)
		r, err := Open(fs, "t.sst", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if n := kv.FirstPartLen(c.Key); n > 0 && !r.MayContainPrefix(c.Key[:n]) {
				t.Fatalf("seed %d: first part %x of held key %x rejected", seed, c.Key[:n], c.Key)
			}
			for i := 0; i <= len(c.Key); i++ {
				if !r.MayContainPrefix(c.Key[:i]) {
					t.Fatalf("seed %d: prefix %x of held key %x rejected", seed, c.Key[:i], c.Key)
				}
			}
		}
		r.Close()
	}
}

// TestMayContainPrefixRejectsAbsentRows checks the skip is effective: rows
// inside the table's key range but absent from it are rejected by the
// filter's first-part entries at about its false-positive rate, while held
// rows always pass.
func TestMayContainPrefixRejectsAbsentRows(t *testing.T) {
	fs := vfs.NewMemFS()
	var cells []kv.Cell
	for i := 0; i < 2000; i += 2 { // even rows only, three columns each
		for _, col := range []string{"price", "title", "qty"} {
			cells = append(cells, kv.Cell{Key: kv.BaseKey([]byte(fmt.Sprintf("item%05d", i)), []byte(col)), Value: []byte("v"), Ts: 1, Kind: kv.KindPut})
		}
	}
	buildTable(t, fs, "t.sst", cells)
	r, err := Open(fs, "t.sst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	passed := 0
	for i := 0; i < 2000; i++ {
		ok := r.MayContainPrefix(kv.RowPrefix([]byte(fmt.Sprintf("item%05d", i))))
		switch {
		case i%2 == 0 && !ok:
			t.Fatalf("held row item%05d rejected", i)
		case i%2 == 1 && ok:
			passed++
		}
	}
	if passed > 50 { // 5 % of the 1000 absent rows; the filter is sized for ≈1 %
		t.Fatalf("%d of 1000 absent rows passed the filter", passed)
	}
	// Outside the bounds, the bound check alone rejects.
	for _, row := range []string{"aaa", "zzz"} {
		if r.MayContainPrefix(kv.RowPrefix([]byte(row))) {
			t.Errorf("row %s outside the table's bounds passed", row)
		}
	}
}
