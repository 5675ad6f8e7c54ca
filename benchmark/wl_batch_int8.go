package main

import "time"

// The int8 half of batch_sweep lives in this file alone: ROADMAP item 3
// decides whether int8 batch serving (several times slower than float
// today) is restructured or deleted, and if it is deleted, removing this
// file and its one call site in wl_batch.go is the benchmark change that
// precedes it.
func int8Sweep(s *batchWL, seed uint64, end time.Time, n int, t *tally) {
	sweepLoop(s.tenants[1].backend, 1, seed^0x1278, end, n, s.sloNS, t, s.e.tr != nil)
}
