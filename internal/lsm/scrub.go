package lsm

import (
	"errors"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/sstable"
)

// The background scrubber is the store's online integrity check: a paced,
// low-priority walker that re-reads every data block of every live SSTable
// directly from disk (bypassing the block cache in both directions) and
// verifies it against the per-block CRC32C recorded at write time. It runs as
// one goroutine per store, coexisting with flushes and compactions through
// the same refcounted table snapshot reads use (components): a table being
// scrubbed can be retired by a compaction concurrently — the file simply
// lives until the scrubber releases its reference. Pacing makes the scrubber
// yield to foreground I/O: it sleeps ScrubBlockPace between blocks and
// ScrubInterval between full cycles. It counts only in the store's registry:
// diffindex_scrub_{blocks,bytes,corruptions,cycles}_total.

// scrubLoop alternates ScrubInterval sleeps with full scrub cycles until the
// store closes.
func (s *Store) scrubLoop() {
	defer s.bg.Done()
	for {
		if !s.scrubSleep(s.opts.ScrubInterval) {
			return
		}
		s.ScrubOnce()
	}
}

// scrubSleep pauses for d, returning false when the store closed meanwhile.
func (s *Store) scrubSleep(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-s.closeCh:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.closeCh:
		return false
	case <-t.C:
		return true
	}
}

// ScrubOnce runs one full scrub cycle synchronously: every data block of
// every table in the current snapshot is re-read from disk and verified.
// It returns the number of corruptions found in this cycle. The background
// loop calls it on its own schedule; tests and tools call it directly for a
// deterministic full pass.
func (s *Store) ScrubOnce() int {
	_, tables, release, err := s.components(kv.MaxTimestamp)
	if err != nil {
		return 0 // store closed
	}
	defer release()

	found := 0
	for _, h := range tables {
		for i := 0; i < h.r.NumBlocks(); i++ {
			n, err := h.r.VerifyBlock(i)
			s.scrubBlocks.Inc()
			s.scrubBytes.Add(int64(n))
			if errors.Is(err, sstable.ErrCorruption) {
				found++
				s.scrubCorruptions.Inc()
			}
			// A read error or corruption does not stop the cycle: the point
			// of a scrub is a complete damage report, not fail-fast.
			if !s.scrubSleep(s.opts.ScrubBlockPace) {
				return found
			}
		}
	}
	s.scrubCycles.Inc()
	return found
}
