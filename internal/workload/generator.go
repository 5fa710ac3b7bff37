// Package workload reproduces the paper's benchmark schema and key choice:
// YCSB (§8.1) extended with an item table of 10 columns (~1 KB rows) whose
// item_title and item_price columns are indexed. It provides the YCSB
// key-choosers (uniform, and scrambled zipfian with Gray's algorithm), the
// op kinds a workload mix draws from, and a loader.
package workload

import (
	"math"
	"math/rand"
)

// Uniform chooses item ordinals in [0, n) uniformly. It is NOT safe for
// concurrent use; give each worker thread its own.
type Uniform struct {
	n   int64
	rng *rand.Rand
}

// NewUniform builds a seeded uniform chooser over [0, n).
func NewUniform(n int64, seed int64) *Uniform {
	return &Uniform{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next ordinal.
func (g *Uniform) Next() int64 { return g.rng.Int63n(g.n) }

// ZipfianConstant is YCSB's default skew parameter θ.
const ZipfianConstant = 0.99

// Zipfian generates zipf-distributed ordinals in [0, n) using the
// incremental algorithm of Gray et al. ("Quickly generating billion-record
// synthetic databases"), exactly as YCSB's ZipfianGenerator does. Item 0 is
// the most popular.
type Zipfian struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	rng   *rand.Rand
}

// NewZipfian builds a zipfian generator over [0, n) with skew theta.
func NewZipfian(n int64, theta float64, rng *rand.Rand) *Zipfian {
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next ordinal.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads zipfian popularity across the whole key space by
// hashing, as YCSB does, so hot keys are not clustered in one region.
type ScrambledZipfian struct {
	z *Zipfian
	n int64
}

// NewScrambledZipfian builds a scrambled zipfian generator over [0, n).
func NewScrambledZipfian(n int64, seed int64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, ZipfianConstant, rand.New(rand.NewSource(seed))), n: n}
}

// Next returns the next ordinal.
func (s *ScrambledZipfian) Next() int64 {
	return int64(fnvHash64(uint64(s.z.Next()))) % s.n
}

func fnvHash64(v uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= prime
		v >>= 8
	}
	return h >> 1 // keep it non-negative when cast to int64
}
