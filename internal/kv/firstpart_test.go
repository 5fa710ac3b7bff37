package kv

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkFirstPartLen asserts FirstPartLen agrees with DecodePart on b: it
// fails exactly where decoding the first part fails, and otherwise b[:n] is
// the first part's encoding, terminator included.
func checkFirstPartLen(t *testing.T, b []byte) {
	t.Helper()
	n := FirstPartLen(b)
	part, rest, err := DecodePart(b)
	if err != nil {
		if n != -1 {
			t.Fatalf("FirstPartLen(%x) = %d, but DecodePart fails: %v", b, n, err)
		}
		return
	}
	if want := len(b) - len(rest); n != want {
		t.Fatalf("FirstPartLen(%x) = %d, DecodePart consumed %d", b, n, want)
	}
	if enc := AppendPart(nil, part); !bytes.Equal(enc, b[:n]) {
		t.Fatalf("FirstPartLen(%x) = %d: prefix %x is not the part's encoding %x", b, n, b[:n], enc)
	}
	// A range over exactly that part is a part range; its successor is the
	// one upper bound that makes it one.
	if !IsPartRange(b[:n], PrefixSuccessor(b[:n])) {
		t.Fatalf("IsPartRange(%x, successor) = false", b[:n])
	}
}

// randomKey draws keys over the bytes the encoding treats specially, so
// escapes, terminators, malformed pairs and truncations all come up often.
func randomKey(rng *rand.Rand) []byte {
	alphabet := []byte{0x00, 0x01, 0x02, 0xFF, 'a', 'z'}
	part := func() []byte {
		p := make([]byte, rng.Intn(6))
		for i := range p {
			p[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return p
	}
	var k []byte
	switch rng.Intn(5) {
	case 0: // raw bytes
		k = part()
	case 1: // one part
		k = EncodeComposite(part())
	case 2: // base or index key
		k = EncodeComposite(part(), part())
	case 3: // local-index key
		k = LocalIndexKey("lidx_t_c", part(), part())
	default: // a composite key cut short
		k = EncodeComposite(part(), part())
		k = k[:rng.Intn(len(k)+1)]
	}
	return k
}

func TestFirstPartLenMatchesDecodePart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkFirstPartLen(t, randomKey(rng))
	}
}

func TestFirstPartLenCases(t *testing.T) {
	cases := []struct {
		key  []byte
		want int
	}{
		{nil, -1},
		{[]byte("row"), -1},     // no terminator
		{[]byte{'r', 0x00}, -1}, // truncated escape
		{[]byte{0x00, 0x00, 'x', 0x00, 0x01}, -1},                // local-index prefix
		{[]byte{0x00, 0x02}, -1},                                 // malformed escape
		{AppendPart(nil, nil), 2},                                // empty part
		{AppendPart(nil, []byte{0x00, 0xFF}), 5},                 // escaped 0x00, raw 0xFF
		{BaseKey([]byte("row"), []byte("col")), 5},               // the row
		{IndexKey([]byte{0xFF, 0x00}, []byte("row")), 5},         // the value
		{AppendPart([]byte{'a', 0x00, 0xFF}, []byte("b")), 6},    // escape before the terminator
		{append(AppendPart(nil, []byte("v")), 0x00, 0x00), 3},    // garbage after the first part
		{LocalIndexValuePrefix("lidx_t_c", []byte("value")), -1}, // never a first part
	}
	for _, c := range cases {
		if got := FirstPartLen(c.key); got != c.want {
			t.Errorf("FirstPartLen(%x) = %d, want %d", c.key, got, c.want)
		}
		checkFirstPartLen(t, c.key)
	}
}

func TestIsPartRange(t *testing.T) {
	row := RowPrefix([]byte("item001"))
	for _, c := range []struct {
		lo, hi []byte
		want   bool
	}{
		{row, PrefixSuccessor(row), true},
		{IndexValuePrefix([]byte{0x00, 0xFF}), PrefixSuccessor(IndexValuePrefix([]byte{0x00, 0xFF})), true},
		{row, nil, false},
		{row, row, false},
		{row, append(PrefixSuccessor(row), 0), false},
		{[]byte("item001"), PrefixSuccessor([]byte("item001")), false}, // not a part
		{BaseKey([]byte("r"), []byte("c")), PrefixSuccessor(BaseKey([]byte("r"), []byte("c"))), false},
		{nil, nil, false},
	} {
		if got := IsPartRange(c.lo, c.hi); got != c.want {
			t.Errorf("IsPartRange(%x, %x) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		lo, hi := randomKey(rng), randomKey(rng)
		want := len(lo) > 0 && FirstPartLen(lo) == len(lo) && bytes.Equal(hi, PrefixSuccessor(lo))
		if got := IsPartRange(lo, hi); got != want {
			t.Fatalf("IsPartRange(%x, %x) = %v, want %v", lo, hi, got, want)
		}
	}
}
