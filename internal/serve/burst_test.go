package serve

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestCoalescerQueryRowsCorrectness submits multi-row bursts while plain
// Query callers run alongside: every row must come back to its own index
// with its own answer, and chunking at MaxBatch must stay transparent.
func TestCoalescerQueryRowsCorrectness(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 50 * time.Microsecond
	c := NewCoalescer(fb, Config{MaxBatch: 4})
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				rows := make([][]float64, 10) // > MaxBatch: forces chunking
				for i := range rows {
					rows[i] = []float64{float64(g), float64(round*10 + i)}
				}
				got := make([]bool, len(rows))
				err := c.QueryRows(rows, func(i int, res Result, err error) {
					if err != nil {
						t.Errorf("row %d: %v", i, err)
						return
					}
					if got[i] {
						t.Errorf("row %d delivered twice", i)
					}
					got[i] = true
					want := rows[i][0] + 2*rows[i][1]
					if math.Abs(res.Y[0]-want) > 1e-12 {
						t.Errorf("row %d: got %v want %v", i, res.Y[0], want)
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i, ok := range got {
					if !ok {
						t.Errorf("row %d never delivered", i)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Queries != 4*20*10 {
		t.Fatalf("queries = %d, want %d", st.Queries, 4*20*10)
	}
}

// TestCoalescerQueryRowsRowErrors checks a poisoned row inside a burst
// fails only itself; its burst-mates get their answers.
func TestCoalescerQueryRowsRowErrors(t *testing.T) {
	fb := newFakeBackend()
	fb.failAt = 99
	c := NewCoalescer(fb, Config{MaxBatch: 8})
	defer c.Close()

	rows := [][]float64{{1, 1}, {99, 0}, {2, 2}}
	errs := make([]error, len(rows))
	ys := make([]float64, len(rows))
	if err := c.QueryRows(rows, func(i int, res Result, err error) {
		errs[i] = err
		if err == nil {
			ys[i] = res.Y[0]
		}
	}); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy rows failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("poisoned row did not fail")
	}
	if ys[0] != 3 || ys[2] != 6 {
		t.Fatalf("healthy answers corrupted: %v %v", ys[0], ys[2])
	}
}

// TestCoalescerQueryRowsPanic checks a backend panic re-surfaces as a
// panic from QueryRows (the fleet layer converts it to an error), after
// the batch's claims are retired so the pool is not poisoned.
func TestCoalescerQueryRowsPanic(t *testing.T) {
	fb := newFakeBackend()
	fb.panicAt = 7
	c := NewCoalescer(fb, Config{MaxBatch: 8})
	defer c.Close()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("QueryRows did not re-panic")
			}
		}()
		c.QueryRows([][]float64{{7, 0}}, func(int, Result, error) {
			t.Error("callback ran for a panicked batch")
		})
	}()

	// The coalescer must still serve afterwards.
	r, err := c.Query([]float64{1, 1})
	if err != nil || r.Y[0] != 3 {
		t.Fatalf("post-panic query: %v %v", r, err)
	}
}

// TestCoalescerQueryRowsValidation checks bad geometry and closed
// coalescers reject the whole burst before any callback runs.
func TestCoalescerQueryRowsValidation(t *testing.T) {
	c := NewCoalescer(newFakeBackend(), Config{MaxBatch: 8})
	boom := func(int, Result, error) { t.Error("callback ran") }
	if err := c.QueryRows([][]float64{{1, 2}, {1, 2, 3}}, boom); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := c.QueryRows(nil, boom); err != nil {
		t.Fatalf("empty burst: %v", err)
	}
	c.Close()
	if err := c.QueryRows([][]float64{{1, 2}}, boom); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed coalescer returned %v", err)
	}
}
