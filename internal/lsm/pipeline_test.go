package lsm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"diffindex/internal/kv"
	"diffindex/internal/metrics"
	"diffindex/internal/vfs"
)

func TestApplyAndApplyBatch(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	if err := s.Apply(kv.Cell{Key: []byte("single"), Value: []byte("v"), Ts: 1, Kind: kv.KindPut}); err != nil {
		t.Fatal(err)
	}
	batch := []kv.Cell{
		{Key: []byte("row\x00a"), Value: []byte("1"), Ts: 2, Kind: kv.KindPut},
		{Key: []byte("row\x00b"), Value: []byte("2"), Ts: 2, Kind: kv.KindPut},
		{Key: []byte("dead"), Ts: 2, Kind: kv.KindDelete},
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"single", "row\x00a", "row\x00b"} {
		if _, ok, _ := s.Get([]byte(k), kv.MaxTimestamp); !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if c, ok := newestCell(t, s, []byte("dead"), kv.MaxTimestamp); !ok || !c.Tombstone() {
		t.Errorf("batched delete: cell %+v, found %v; want a tombstone", c, ok)
	}
	if n, _ := s.opts.Metrics.Value("diffindex_wal_appends_total", metrics.L("table", "")); n != 4 {
		t.Errorf("WAL appends = %d, want 4 (the empty batch appends nothing)", n)
	}

	// Batches survive recovery as one WAL group.
	s.Close()
	s2, err := Open(Options{FS: fs, Dir: "store", DisableAutoFlush: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get([]byte("row\x00b"), kv.MaxTimestamp); !ok {
		t.Error("batched cell lost on recovery")
	}
}

func TestMemtableBytesAccessor(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()
	if s.MemtableBytes() != 0 {
		t.Error("fresh store has non-zero memtable bytes")
	}
	s.Put([]byte("k"), make([]byte, 1000), 1)
	if s.MemtableBytes() < 1000 {
		t.Errorf("MemtableBytes = %d", s.MemtableBytes())
	}
}

// TestPipelineAtomicWithFlush verifies the invariant the drain-before-flush
// protocol needs: work done inside a Pipeline (apply + any enqueue the
// caller performs) cannot interleave with a flush's pre-flush phase — the
// hook either sees both the cell and the side effect, or neither.
func TestPipelineAtomicWithFlush(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	defer s.Close()

	var mu sync.Mutex
	enqueued := map[string]bool{} // simulates the AUQ

	// The pre-flush hook asserts that every cell currently in the store has
	// its matching "queue entry" — i.e. no pipeline was split by the flush.
	s.RegisterPreFlush(func() error {
		results, err := s.Scan(nil, nil, kv.MaxTimestamp, 0)
		if err != nil {
			t.Error(err)
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		for _, res := range results {
			if !enqueued[string(res.Key)] {
				t.Errorf("flush observed cell %q without its enqueue", res.Key)
			}
		}
		return nil
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				err := s.Pipeline(func() error {
					if err := s.ApplyBatchLocked([]kv.Cell{{Key: key, Value: []byte("v"), Ts: kv.Timestamp(w*1_000_000 + i + 1), Kind: kv.KindPut}}, nil); err != nil {
						return err
					}
					mu.Lock()
					enqueued[string(key)] = true
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for f := 0; f < 10; f++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPipelineOnClosedStore(t *testing.T) {
	fs := vfs.NewMemFS()
	s := newTestStore(t, fs)
	s.Close()
	if err := s.Pipeline(func() error { return nil }); err != ErrClosed {
		t.Errorf("Pipeline after close: %v", err)
	}
	if err := s.ApplyBatch([]kv.Cell{{Key: []byte("k"), Ts: 1}}); err != ErrClosed {
		t.Errorf("ApplyBatch after close: %v", err)
	}
	if err := s.Apply(kv.Cell{Key: []byte("k"), Ts: 1}); err != ErrClosed {
		t.Errorf("Apply after close: %v", err)
	}
}

// TestPipelineRacesClose: writes racing Close fail only with ErrClosed, the
// error the cluster maps to a retriable routing miss. Close can shut the WAL
// between a write's closed check and its append; that append wrote nothing
// and must report ErrClosed too, not the log's own error.
func TestPipelineRacesClose(t *testing.T) {
	for round := 0; round < 40; round++ {
		s := newTestStore(t, vfs.NewMemFS())
		var wg sync.WaitGroup
		started := make(chan struct{}, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if i == 10 {
						started <- struct{}{}
					}
					key := []byte(fmt.Sprintf("w%d-%06d", w, i))
					err := s.Pipeline(func() error {
						return s.ApplyBatchLocked([]kv.Cell{{Key: key, Value: []byte("v"), Ts: kv.Timestamp(i + 1), Kind: kv.KindPut}}, nil)
					})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("write racing Close: %v, want ErrClosed", err)
						}
						return
					}
				}
			}(w)
		}
		for w := 0; w < 4; w++ {
			<-started
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
