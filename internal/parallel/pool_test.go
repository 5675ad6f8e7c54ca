package parallel

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off the first line of its
// stack trace ("goroutine 12 [running]:"). The tests use it to tell the
// caller from the goroutines ForEachBounded spawns.
func goid() int {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		panic("cannot parse goroutine id from " + string(buf[:]))
	}
	return id
}

// idSet records which goroutines ran f.
type idSet struct {
	mu  sync.Mutex
	ids map[int]bool
}

func (s *idSet) add(id int) {
	s.mu.Lock()
	if s.ids == nil {
		s.ids = map[int]bool{}
	}
	s.ids[id] = true
	s.mu.Unlock()
}

func TestForEachBoundedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 100
		seen := make([]atomic.Int32, n)
		ForEachBounded(n, workers, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForEachBoundedConcurrencyCap holds the first calls at a rendezvous
// that only `workers` concurrent goroutines can complete, so the cap is
// reached — with the caller as one of them — and checks that over the
// whole run no more than `workers` goroutines ever ran f.
func TestForEachBoundedConcurrencyCap(t *testing.T) {
	const workers, n = 4, 64
	var ran idSet
	var arrived, cur, peak atomic.Int32
	full := make(chan struct{})
	caller := goid()
	ForEachBounded(n, workers, func(i int) {
		ran.add(goid())
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		if arrived.Add(1) == workers {
			close(full)
		}
		select {
		case <-full:
		case <-time.After(10 * time.Second):
			t.Error("fewer than `workers` goroutines run f concurrently")
		}
		cur.Add(-1)
	})
	if len(ran.ids) != workers {
		t.Fatalf("%d goroutines ran f, want exactly %d", len(ran.ids), workers)
	}
	if !ran.ids[caller] {
		t.Fatal("the calling goroutine did not work as one of the workers")
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, cap is %d", p, workers)
	}
}

func TestForEachBoundedFewerItemsThanWorkers(t *testing.T) {
	const n = 3
	var ran idSet
	seen := make([]atomic.Int32, n)
	ForEachBounded(n, 16, func(i int) {
		ran.add(goid())
		seen[i].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
	if len(ran.ids) > n {
		t.Fatalf("%d goroutines for %d items: workers not clamped to n", len(ran.ids), n)
	}
}

func TestForEachBoundedInlineSpawnsNothing(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-1, 0, 1} {
		before := runtime.NumGoroutine()
		calls := 0 // unsynchronized on purpose: inline means one goroutine
		ForEachBounded(50, workers, func(i int) {
			calls++
			if goid() != caller {
				t.Errorf("workers=%d: f ran off the calling goroutine", workers)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("workers=%d: %d goroutines during an inline run, %d before", workers, g, before)
			}
		})
		if calls != 50 {
			t.Fatalf("workers=%d: %d calls want 50", workers, calls)
		}
	}
}

func TestForEachBoundedLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for r := 0; r < 100; r++ {
		ForEachBounded(32, 8, func(int) {})
	}
	// A worker has called Done before ForEachBounded returns, but its
	// goroutine is torn down just after: give the count a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestForEachBoundedZeroItems(t *testing.T) {
	called := false
	ForEachBounded(0, 8, func(i int) { called = true })
	if called {
		t.Fatal("callback invoked for empty range")
	}
}
