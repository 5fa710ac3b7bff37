package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// hashes returns the Hash of each key, what New takes.
func hashes(keys [][]byte) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = Hash(k)
	}
	return out
}

func keysN(n int, prefix string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s%08d", prefix, i))
	}
	return keys
}

func TestNoFalseNegatives(t *testing.T) {
	keys := keysN(10000, "key")
	f := New(hashes(keys), BitsPerKey)
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	check := func(keys [][]byte) bool {
		f := New(hashes(keys), BitsPerKey)
		for _, k := range keys {
			if !f.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(hashes(keysN(10000, "member")), BitsPerKey)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent%08d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// 10 bits/key targets ≈1%; allow generous slack to keep the test stable.
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f exceeds 3%%", rate)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	keys := keysN(500, "k")
	f := New(hashes(keys), BitsPerKey)
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !g.MayContain(k) {
			t.Fatalf("false negative after round trip for %q", k)
		}
	}
	if g.k != f.k || len(g.bits) != len(f.bits) {
		t.Error("round trip changed filter shape")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2}); err == nil {
		t.Error("short buffer: want error")
	}
	bad := make([]byte, 12)
	binary.LittleEndian.PutUint32(bad, 0)
	if _, err := Unmarshal(bad); err == nil {
		t.Error("k=0: want error")
	}
	binary.LittleEndian.PutUint32(bad, 31)
	if _, err := Unmarshal(bad); err == nil {
		t.Error("k=31: want error")
	}
}

func TestEmptyAndNilFilter(t *testing.T) {
	f := New(nil, BitsPerKey)
	if f.MayContain([]byte("anything")) {
		// An empty filter has all bits clear, so everything is excluded.
		t.Error("empty filter should exclude all keys")
	}
	var nilF *Filter
	if !nilF.MayContain([]byte("x")) {
		t.Error("nil filter must not exclude keys")
	}
}

func TestDegenerateBitsPerKey(t *testing.T) {
	keys := keysN(100, "k")
	f := New(hashes(keys), 0) // clamped to 1 bit/key
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatal("false negative with clamped bitsPerKey")
		}
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := New(hashes(keysN(100000, "k")), BitsPerKey)
	probe := []byte("k00050000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(probe)
	}
}

// TestHashIsFNV1a pins Hash to the standard 64-bit FNV-1a sum, which the
// filters in existing tables were built with.
func TestHashIsFNV1a(t *testing.T) {
	for _, k := range append(keysN(50, "k"), nil, []byte{0}, []byte("\xff\x00row")) {
		h := fnv.New64a()
		h.Write(k)
		if got, want := Hash(k), h.Sum64(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", k, got, want)
		}
	}
}

// TestFilterBytesUnchanged pins the serialized filter of a fixed key set, so
// filters written before and after a change to how keys reach New agree
// bit for bit.
func TestFilterBytesUnchanged(t *testing.T) {
	b := New(hashes(keysN(1000, "k")), BitsPerKey).Marshal()
	if len(b) != 1254 || crc32.ChecksumIEEE(b) != 0x5eb01004 {
		t.Errorf("filter of 1000 keys: %d bytes, CRC %#08x; want 1254 bytes, CRC 0x5eb01004", len(b), crc32.ChecksumIEEE(b))
	}
}
