package cluster

import (
	"sync"
	"sync/atomic"
)

// DefaultReadFanOut is the bound on concurrent per-region RPCs a single
// client operation may have in flight (Client.SetFanOut overrides it per
// client, for baselines and tests). Regions are independent servers, so a
// scatter-gather read's latency is the slowest region's latency — not the
// sum — as long as the fan-out width covers the region count; 8 covers the
// common deployments while keeping a single client from monopolizing the
// network.
const DefaultReadFanOut = 8

// runFanOut executes fn(0) … fn(n-1) under a bounded worker pool of the
// given width and returns the lowest-index error (first-error semantics in
// input order, deterministic regardless of goroutine scheduling). Every
// index runs even when another fails — batches are small and callers own
// per-slot results, so finishing the wave keeps slot state consistent.
// width ≤ 1 degenerates to a serial loop with early exit (the historical
// behaviour, kept for baselines and tests).
func runFanOut(width, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if width <= 0 {
		width = DefaultReadFanOut
	}
	if width == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if width > n {
		width = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
