package lsm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// BenchmarkSustainedWrite drives a growing write stream through a small
// memtable so the store flushes constantly, and compares a full-merge
// baseline (the bench loop calls Store.Compact itself whenever the table
// budget is reached) against the tiered incremental engine on two axes:
//
//	write-amp   (FlushBytes + CompactionBytesWritten) / FlushBytes
//	p99-put-ns  tail write-path latency including flushes and the L0-style
//	            write stall applied when compaction debt exceeds
//	            benchMaxTables — the stall a client sees while waiting for
//	            the compactor to retire tables
//
// Both modes are held to the same read-amplification budget (at most
// benchMaxTables live SSTables before the next write proceeds), which is
// how LSM stores bound compaction debt in practice. The full-merge
// baseline can only shed debt by rewriting the entire store, so its stalls
// and write amplification grow with store size; the tiered engine merges
// full tiers in the background and, should the budget still be exceeded,
// the stalled writer forces a bounded fan-in round (CompactOnce).
//
// Run with -benchtime=150000x or more for stable numbers.
func BenchmarkSustainedWrite(b *testing.B) {
	modes := []struct {
		name string
		full bool
	}{
		{"full-merge", true},
		{"tiered", false},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			const (
				benchMemtable  = 8 << 10
				benchMaxTables = 12
			)
			s, err := Open(Options{
				FS: vfs.NewMemFS(), Dir: "bench",
				MemtableBytes:      benchMemtable,
				CompactionFanIn:    4,
				DisableAutoCompact: mode.full,
				// Pace flushes from the loop: the async auto-flush cannot
				// keep up with a tight MemFS put loop, which would batch
				// everything into a handful of giant tables and hide the
				// flush/compaction interplay being measured.
				DisableAutoFlush: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, 128)
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Mostly-unique keys grow the store, so full-merge pays an
				// O(store) rewrite per round; every 8th put overwrites to
				// give the compactor versions to reclaim.
				n := i
				if i%8 == 7 {
					n = i - i%512
				}
				key := []byte(fmt.Sprintf("row%08d", n))
				start := time.Now()
				if err := s.Put(key, value, kv.Timestamp(i+1)); err != nil {
					b.Fatal(err)
				}
				if s.MemtableBytes() >= benchMemtable {
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
					if mode.full && s.TableCount() >= benchMaxTables {
						if err := s.Compact(); err != nil {
							b.Fatal(err)
						}
					}
					// Write stall: block until the compactor brings the
					// table count back under the read-amplification budget.
					for s.TableCount() > benchMaxTables {
						if ran, err := s.CompactOnce(); err != nil {
							b.Fatal(err)
						} else if !ran {
							time.Sleep(50 * time.Microsecond)
						}
					}
				}
				lat[i] = time.Since(start)
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			s.WaitCompactions()
			b.StopTimer()

			st := s.Stats()
			if st.CompactionErrors != 0 {
				b.Fatalf("compaction errors: %d (%s)", st.CompactionErrors, st.LastCompactionError)
			}
			if st.FlushBytes > 0 {
				wa := float64(st.FlushBytes+st.CompactionBytesWritten) / float64(st.FlushBytes)
				b.ReportMetric(wa, "write-amp")
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			b.ReportMetric(float64(p99.Nanoseconds()), "p99-put-ns")
			// The stall tail: full-store rewrites block writers for entire
			// merge durations, but those events are rarer than 1 in 100
			// puts, so only the 99.9th percentile sees them.
			p999 := lat[len(lat)*999/1000]
			b.ReportMetric(float64(p999.Nanoseconds()), "p999-put-ns")
			b.ReportMetric(float64(st.Compactions), "rounds")
			b.ReportMetric(float64(s.TableCount()), "tables")
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
