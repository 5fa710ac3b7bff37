package workload

import (
	"fmt"
	"math/rand"
)

// OpKind labels the operation types a workload mix can issue.
type OpKind int

const (
	// OpUpdate writes a new title to an item (a base put that forces index
	// maintenance) — the update workload of Figures 7 and 10.
	OpUpdate OpKind = iota
	// OpIndexRead is an exact-match getByIndex on item_title — Figure 8.
	OpIndexRead
	// OpRangeRead is a range query on item_price — Figure 9.
	OpRangeRead
	// OpRowRead is a plain primary-key row read (used for mixed workloads).
	OpRowRead
	numOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpUpdate:
		return "update"
	case OpIndexRead:
		return "index-read"
	case OpRangeRead:
		return "range-read"
	case OpRowRead:
		return "row-read"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// PickOp samples an op kind from mix, which gives the probability of each
// kind; entries must sum to ≤ 1 and unassigned probability mass goes to
// OpUpdate.
func PickOp(rng *rand.Rand, mix map[OpKind]float64) OpKind {
	if len(mix) == 0 {
		return OpUpdate
	}
	u := rng.Float64()
	acc := 0.0
	for k := OpKind(0); k < numOpKinds; k++ {
		p, ok := mix[k]
		if !ok {
			continue
		}
		acc += p
		if u < acc {
			return k
		}
	}
	return OpUpdate
}
