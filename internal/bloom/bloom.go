// Package bloom implements the Bloom filters embedded in SSTables. HBase
// attaches a Bloom filter to each HFile so point reads skip files that
// cannot contain the requested key; without them every LSM read would probe
// every on-disk component (§2.1). The filter uses double hashing (Kirsch &
// Mitzenmacher) over a 64-bit FNV-1a hash, the standard construction used by
// LevelDB-family stores.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is an immutable Bloom filter over a set of keys.
type Filter struct {
	bits []byte
	k    uint32 // number of probe positions per key
}

// BitsPerKey is the sizing used when building filters: 10 bits/key gives a
// ≈1% false-positive rate, matching HBase's default row Bloom configuration.
const BitsPerKey = 10

// Hash returns the 64-bit FNV-1a hash of key, the value New takes per key.
// A table writer hashes each key once as it arrives instead of keeping a
// copy of it until the filter is built.
func Hash(key []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// probes splits a key hash into the two 32-bit halves of double hashing.
func probes(sum uint64) (h1, h2 uint32) {
	h1 = uint32(sum)
	h2 = uint32(sum >> 32)
	if h2 == 0 { // keep the probe stride non-degenerate
		h2 = 0x9E3779B9
	}
	return h1, h2
}

// New builds a filter containing every key whose Hash is in hashes, sized
// at bitsPerKey bits per key (use BitsPerKey for the default ≈1% FP rate).
func New(hashes []uint64, bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8
	// Optimal probe count: k = ln2 · bits/key, clamped to a sane range.
	k := uint32(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	f := &Filter{bits: make([]byte, nBytes), k: k}
	for _, sum := range hashes {
		h1, h2 := probes(sum)
		for i := uint32(0); i < k; i++ {
			pos := (h1 + i*h2) % uint32(nBits)
			f.bits[pos/8] |= 1 << (pos % 8)
		}
	}
	return f
}

// MayContain reports whether key may be in the set. False negatives never
// occur; false positives occur at roughly the configured rate.
func (f *Filter) MayContain(key []byte) bool {
	if f == nil || len(f.bits) == 0 {
		return true // absent filter: cannot exclude anything
	}
	nBits := uint32(len(f.bits) * 8)
	h1, h2 := probes(Hash(key))
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + i*h2) % nBits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// Marshal serializes the filter for embedding in an SSTable footer block.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 4+len(f.bits))
	binary.LittleEndian.PutUint32(out, f.k)
	copy(out[4:], f.bits)
	return out
}

// Unmarshal decodes a filter produced by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bloom: filter too short (%d bytes)", len(data))
	}
	k := binary.LittleEndian.Uint32(data)
	if k == 0 || k > 30 {
		return nil, fmt.Errorf("bloom: invalid probe count %d", k)
	}
	bits := make([]byte, len(data)-4)
	copy(bits, data[4:])
	return &Filter{bits: bits, k: k}, nil
}
