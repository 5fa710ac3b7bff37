package lsm

import (
	"fmt"
	"testing"
	"time"

	"diffindex/internal/kv"
	"diffindex/internal/vfs"
)

// BenchmarkScrubOverhead measures the put/get cost of running the background
// scrubber at its default pace against an identical store with scrubbing
// disabled. The store is pre-loaded so every cycle has real blocks to verify,
// and the scrub interval is shortened to near-zero so the walker is
// continuously active during the measured window — a strict upper bound on
// the default 5s-interval configuration. The acceptance bar is ≤5% impact.
func BenchmarkScrubOverhead(b *testing.B) {
	modes := []struct {
		name  string
		scrub bool
	}{
		{"scrub-off", false},
		{"scrub-on", true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			o := Options{
				FS: vfs.NewMemFS(), Dir: "bench",
				MemtableBytes:    1 << 20,
				DisableAutoFlush: true,
				DisableScrub:     !mode.scrub,
				// Continuous cycles at the default per-block pace (1ms): the
				// paced walker is always active while ops are measured.
				ScrubInterval: time.Nanosecond,
			}
			s, err := Open(o)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const preload = 4000
			for i := 0; i < preload; i++ {
				key := []byte(fmt.Sprintf("k%06d", i))
				val := []byte(fmt.Sprintf("value-%06d-padpadpadpadpadpadpad", i))
				if err := s.Put(key, val, kv.Timestamp(i+1)); err != nil {
					b.Fatal(err)
				}
				if i%1000 == 999 {
					if err := s.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := []byte(fmt.Sprintf("k%06d", i%preload))
				if i%2 == 0 {
					if err := s.Put(key, []byte("updated-value-padpadpadpad"), kv.Timestamp(preload+i+1)); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, _, err := s.Get(key, kv.MaxTimestamp); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if mode.scrub {
				b.ReportMetric(float64(scrubCount(s, "blocks")), "scrubbed-blocks")
				if n := scrubCount(s, "corruptions"); n != 0 {
					b.Fatalf("scrub found %d corruptions in clean bench store", n)
				}
			}
		})
	}
}
