package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// oooVersion is one write the model knows about.
type oooVersion struct {
	ts    kv.Timestamp
	tomb  bool
	value string
}

// oooModel is the reference store for TestOutOfOrderTimestampModel: every
// version ever written, per key, and the rule a point read must follow —
// the newest version at or below the read timestamp wins, and a tombstone
// wins a tie with a put.
type oooModel map[string][]oooVersion

func (m oooModel) has(key string, ts kv.Timestamp, tomb bool) bool {
	for _, v := range m[key] {
		if v.ts == ts && v.tomb == tomb {
			return true
		}
	}
	return false
}

func (m oooModel) read(key string, ts kv.Timestamp) (oooVersion, bool) {
	var best oooVersion
	found := false
	for _, v := range m[key] {
		if v.ts > ts {
			continue
		}
		if !found || v.ts > best.ts || v.ts == best.ts && v.tomb {
			best, found = v, true
		}
	}
	return best, found
}

// TestOutOfOrderTimestampModel drives a store with writes whose timestamps
// ignore component order — Diff-Index's t−δ deletes, repairs at an entry's
// own timestamp and WAL replay all produce them — interleaved with flushes,
// compactions and reopens, and checks every point read against a model. It
// pins the exactness of Get's per-table timestamp skip: a read that
// stops consulting tables by position instead of by timestamp, or that lets
// a put tie a tombstone, returns a version the model does not.
//
// Tombstones are retained. Compaction trims history below the store's GC
// horizon, so a read below it must be refused, and every read at or above
// it must match the model.
func TestOutOfOrderTimestampModel(t *testing.T) {
	const (
		seeds = 40
		ops   = 300
		keys  = 6
		maxTs = 120
	)
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runOutOfOrderModel(t, rand.New(rand.NewSource(seed)), ops, keys, maxTs)
		})
	}
}

func runOutOfOrderModel(t *testing.T, rng *rand.Rand, ops, keys int, maxTs kv.Timestamp) {
	fs := vfs.NewMemFS()
	open := func() *Store {
		s, err := Open(Options{
			FS: fs, Dir: "store",
			RetainTombstones:   true,
			DisableAutoFlush:   true,
			DisableAutoCompact: true,
			DisableScrub:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()

	model := oooModel{}
	var log []string // the ops so far, printed on a mismatch
	write := func(key string, v oooVersion) {
		var err error
		if v.tomb {
			err = s.Delete([]byte(key), v.ts)
		} else {
			err = s.Put([]byte(key), []byte(v.value), v.ts)
		}
		if err != nil {
			t.Fatal(err)
		}
		model[key] = append(model[key], v)
		log = append(log, fmt.Sprintf("write %s %+v", key, v))
	}
	check := func(key string, ts kv.Timestamp) {
		if ts < s.Horizon() {
			if _, _, err := s.Get([]byte(key), ts); !errors.Is(err, ErrHistoryTrimmed) {
				t.Fatalf("Get(%s, %d) below horizon %d: err = %v, want ErrHistoryTrimmed", key, ts, s.Horizon(), err)
			}
			return
		}
		want, wantOK := model.read(key, ts)
		got, ok := newestCell(t, s, []byte(key), ts)
		if ok != wantOK || ok && (got.Ts != want.ts || got.Tombstone() != want.tomb || string(got.Value) != want.value) {
			t.Fatalf("newest version (%s, %d) = %+v ok=%v, want %+v ok=%v\nops:\n%s",
				key, ts, got, ok, want, wantOK, strings.Join(log, "\n"))
		}
		got, ok, err := s.Get([]byte(key), ts)
		if err != nil {
			t.Fatal(err)
		}
		if wantOK = wantOK && !want.tomb; ok != wantOK || ok && (got.Ts != want.ts || string(got.Value) != want.value) {
			t.Fatalf("Get(%s, %d) = %+v ok=%v, want %+v ok=%v\nops:\n%s",
				key, ts, got, ok, want, wantOK, strings.Join(log, "\n"))
		}
	}

	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(keys))
		switch r := rng.Intn(100); {
		case r < 55: // a put or delete at a random, non-monotone timestamp
			v := oooVersion{ts: 1 + kv.Timestamp(rng.Int63n(int64(maxTs))), tomb: rng.Intn(3) == 0}
			if !v.tomb {
				v.value = fmt.Sprintf("v%d", i)
			}
			if !model.has(key, v.ts, v.tomb) {
				write(key, v)
			}
		case r < 70: // the opposite kind at an existing version's timestamp
			if vs := model[key]; len(vs) > 0 {
				old := vs[rng.Intn(len(vs))]
				v := oooVersion{ts: old.ts, tomb: !old.tomb}
				if !v.tomb {
					v.value = fmt.Sprintf("v%d", i)
				}
				if !model.has(key, v.ts, v.tomb) {
					write(key, v)
				}
			}
		case r < 85:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			log = append(log, "flush")
		case r < 95:
			ran, err := s.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("compact (ran=%v)", ran))
		default: // unflushed versions come back through WAL replay
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = open()
			log = append(log, "reopen")
		}
		for j := 0; j < 4; j++ {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			ts := kv.MaxTimestamp
			switch rng.Intn(3) {
			case 1:
				ts = kv.Timestamp(rng.Int63n(int64(maxTs) + 2))
			case 2: // at, and just below, a version's own timestamp
				if vs := model[k]; len(vs) > 0 {
					ts = vs[rng.Intn(len(vs))].ts - kv.Timestamp(rng.Intn(2))
				}
			}
			check(k, ts)
		}
	}
}

// TestCompactionOutputMaxTimestamp: a compaction output's bound is the
// largest of its inputs' bounds, here held by a tombstone the store retains.
func TestCompactionOutputMaxTimestamp(t *testing.T) {
	s, err := Open(Options{
		FS: vfs.NewMemFS(), Dir: "store",
		RetainTombstones:   true,
		DisableAutoFlush:   true,
		DisableAutoCompact: true,
		DisableScrub:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put([]byte("a"), []byte("v"), 30)
	s.Put([]byte("b"), []byte("v"), 10)
	s.Flush()
	s.Delete([]byte("c"), 90)
	s.Put([]byte("a"), []byte("v"), 20)
	s.Flush()
	s.Put([]byte("b"), []byte("v"), 50)
	s.Flush()

	var want kv.Timestamp
	for _, h := range s.tables {
		want = max(want, h.r.MaxTimestamp())
	}
	if want != 90 {
		t.Fatalf("input bounds max = %d, want 90", want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.tables) != 1 {
		t.Fatalf("%d tables after a major compaction, want 1", len(s.tables))
	}
	if got := s.tables[0].r.MaxTimestamp(); got != want {
		t.Fatalf("compaction output MaxTimestamp = %d, want %d", got, want)
	}
}
