package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"diffindex"
	"diffindex/internal/workload"
)

var (
	titleCols = []string{workload.TitleColumn}
	priceCols = []string{workload.PriceColumn}
)

// model is what the store must hold: how many times each item's title was
// updated. Client c only ever touches items with ordinal % clients == c, so
// the clients share the slice without locking and every read has one right
// answer.
type model struct {
	gen []uint32
}

func newModel(records int64) *model { return &model{gen: make([]uint32, records)} }

func titleAt(item int64, gen uint32) []byte {
	if gen == 0 {
		return workload.TitleValue(item)
	}
	return workload.UpdatedTitleValue(item, int64(gen))
}

func (m *model) title(item int64) []byte { return titleAt(item, m.gen[item]) }

// liveBytes is the user data the store holds: every row's cells plus the
// current entry of each of the two indexes.
func (m *model) liveBytes() int64 {
	var total int64
	keyLen := int64(len(workload.ItemKey(0)))
	filler := int64(workload.FillerColumns) * (keyLen + int64(len("field0")) + workload.FillerLength)
	priceLen := int64(len(workload.PriceValue(0)))
	for i := range m.gen {
		titleLen := int64(len(titleAt(int64(i), m.gen[i])))
		total += filler
		total += 2*keyLen + int64(len(workload.TitleColumn)) + titleLen + titleLen
		total += 2*keyLen + int64(len(workload.PriceColumn)) + priceLen + priceLen
	}
	return total
}

// op is one generated request. stale asks an index read for the title the
// item had before its last update, which no index may return any more.
type op struct {
	kind  workload.OpKind
	item  int64
	stale bool
}

// generator turns a seed into one client's op stream. The same seed, client
// and mix give the same stream; the store never sees the seed.
type generator struct {
	client  int64
	records int64
	mix     map[workload.OpKind]float64
	rng     *rand.Rand
	zipf    *workload.ScrambledZipfian
	hash    uint64
}

func newGenerator(seed int64, client int, records int64, mix map[workload.OpKind]float64) *generator {
	s := seed*1000003 + int64(client)*7919
	return &generator{
		client: int64(client), records: records, mix: mix,
		rng:  rand.New(rand.NewSource(s)),
		zipf: workload.NewScrambledZipfian(records, s+1),
		hash: 14695981039346656037,
	}
}

func (g *generator) next() op { return g.nextOf(workload.PickOp(g.rng, g.mix)) }

// nextOf draws the item for an op of the given kind: scrambled zipfian,
// moved onto this client's share of the items.
func (g *generator) nextOf(kind workload.OpKind) op {
	item := g.zipf.Next()
	item += g.client - item%clients
	if kind == workload.OpRangeRead && item+rangeSpan > g.records {
		item -= rangeSpan
	}
	if item >= g.records {
		item -= clients
	}
	o := op{kind: kind, item: item}
	if kind == workload.OpIndexRead {
		o.stale = g.rng.Intn(4) == 0
	}
	for _, v := range [3]uint64{uint64(o.kind), uint64(o.item), boolBit(o.stale)} {
		g.hash = (g.hash ^ v) * 1099511628211
	}
	return o
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// worker is one closed-loop client: a generator, a diffindex.Client, and the
// exact latencies of every call it made.
type worker struct {
	id    int
	cl    *diffindex.Client
	gen   *generator
	m     *model
	async bool // index reads that lag the base are stale misses, not failures

	lat       [4][]int64 // ns per call, by op kind
	attempted int64
	failed    int64
	staleMiss int64
	userBytes int64 // key + column + value bytes of acked puts
	callTime  time.Duration
	firstErr  error

	spans *spanBuf // nil unless this is the traced run
	gaps  []int64  // traced run: ns between one call's return and the next call
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = fmt.Errorf(format, args...)
	}
}

// do issues one op, times the call alone and checks the answer against the
// model. It returns the instants right before and right after the call.
func (w *worker) do(o op) (start, end time.Time) {
	w.attempted++
	key := workload.ItemKey(o.item)
	switch o.kind {
	case workload.OpUpdate:
		title := titleAt(o.item, w.m.gen[o.item]+1)
		start = time.Now()
		_, err := w.cl.Put(workload.TableName, key, diffindex.Cols{workload.TitleColumn: title})
		end = time.Now()
		if err != nil {
			w.fail("put %s: %v", key, err)
			break
		}
		w.m.gen[o.item]++
		w.userBytes += int64(len(key) + len(workload.TitleColumn) + len(title))
	case workload.OpIndexRead:
		stale := o.stale && w.m.gen[o.item] > 0
		want := w.m.title(o.item)
		if stale {
			want = titleAt(o.item, w.m.gen[o.item]-1)
		}
		start = time.Now()
		hits, err := w.cl.GetByIndex(workload.TableName, titleCols, want)
		end = time.Now()
		switch {
		case err != nil:
			w.fail("GetByIndex %s: %v", want, err)
		case stale && len(hits) == 0, !stale && len(hits) == 1 && bytes.Equal(hits[0].Row, key):
		case w.async:
			w.staleMiss++
		default:
			w.fail("GetByIndex %s (stale=%v): %d hits, want item %s", want, stale, len(hits), key)
		}
	case workload.OpRangeRead:
		lo, hi := workload.PriceValue(o.item), workload.PriceValue(o.item+rangeSpan-1)
		start = time.Now()
		hits, err := w.cl.RangeByIndex(workload.TableName, priceCols, lo, hi, rangeSpan)
		end = time.Now()
		if err != nil {
			w.fail("RangeByIndex %s: %v", lo, err)
			break
		}
		ok := len(hits) == rangeSpan
		for j := 0; ok && j < rangeSpan; j++ {
			ok = bytes.Equal(hits[j].Row, workload.ItemKey(o.item+int64(j)))
		}
		if !ok {
			w.fail("RangeByIndex %s..%s: wrong rows (%d hits)", lo, hi, len(hits))
		}
	case workload.OpRowRead:
		start = time.Now()
		cols, err := w.cl.GetRow(workload.TableName, key)
		end = time.Now()
		switch {
		case err != nil:
			w.fail("GetRow %s: %v", key, err)
		case len(cols) != 2+workload.FillerColumns,
			!bytes.Equal(cols[workload.TitleColumn], w.m.title(o.item)),
			!bytes.Equal(cols[workload.PriceColumn], workload.PriceValue(o.item)):
			w.fail("GetRow %s: title %q, want %q", key, cols[workload.TitleColumn], w.m.title(o.item))
		}
	}
	w.lat[o.kind] = append(w.lat[o.kind], int64(end.Sub(start)))
	return start, end
}
