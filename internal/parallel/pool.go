package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEachBounded runs f(i) for every i in [0, n) on at most workers
// goroutines, the caller's included — the bounded fan-out idiom shared by
// the wrappers' oracle fallback pools, committee training and calibration
// grid scans. Every goroutine claims its next index from one shared atomic
// counter: a claim is one atomic add with no hand-off to wait for, so runs
// of a few microseconds keep the workers busy, and the caller works
// instead of feeding the others. workers is clamped to n; workers <= 1
// runs inline on the caller's goroutine with no spawns. f must handle its
// own error propagation (e.g. write into an index-owned results slot) and
// must not panic across goroutines. ForEachBounded returns once every f
// call has.
func ForEachBounded(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
