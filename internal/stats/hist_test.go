package stats

import (
	"math"
	"sync"
	"testing"
)

func TestHistPercentiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 100000; i++ {
		h.Record(i)
	}
	if n := h.count(); n != 100000 {
		t.Fatalf("count %d", n)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.5, 50000}, {0.9, 90000}, {0.99, 99000}, {1.0, 100000}} {
		got := int64(h.Percentile(tc.p))
		relErr := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if relErr > 0.05 {
			t.Fatalf("p%.2f = %d, want ≈ %d (rel err %.3f)", tc.p, got, tc.want, relErr)
		}
	}
}

// histWorkload is writer w's samples: a spread over five decades, so the
// writers share some buckets and not others.
func histWorkload(w, per int) []int64 {
	xs := make([]int64, per)
	for i := range xs {
		xs[i] = int64((i*7919+w*104729)%100000) + int64(w)
	}
	return xs
}

// TestHistConcurrentRecord: 8 goroutines Record into one Hist. No sample
// is lost, and the percentiles are those of the same samples recorded
// serially. Run under -race it also holds Record to being lock-free safe.
func TestHistConcurrentRecord(t *testing.T) {
	const writers, per = 8, 20000
	var shared, serial Hist
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		xs := histWorkload(w, per)
		for _, x := range xs {
			serial.Record(x)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range xs {
				shared.Record(x)
			}
		}()
	}
	wg.Wait()
	if n := shared.count(); n != writers*per {
		t.Fatalf("concurrent count %d, want %d", n, writers*per)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := shared.Percentile(p), serial.Percentile(p); got != want {
			t.Fatalf("p%g = %v concurrently, %v serially", p, got, want)
		}
	}
	if shared.Max() != serial.Max() {
		t.Fatalf("max %v concurrently, %v serially", shared.Max(), serial.Max())
	}
}

// TestHistTakeSplitsExactly: Takes racing the writers hand every sample to
// exactly one window, and each leaves the source empty.
func TestHistTakeSplitsExactly(t *testing.T) {
	const writers, per = 4, 20000
	var live, win Hist
	var taken int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		xs := histWorkload(w, per)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range xs {
				live.Record(x)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		live.Take(&win)
		taken += win.count()
	}
	if n := live.count(); n != 0 {
		t.Fatalf("%d samples left after the last Take", n)
	}
	if taken != writers*per {
		t.Fatalf("windows hold %d samples, want %d", taken, writers*per)
	}
}
