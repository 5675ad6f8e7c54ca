package main

import (
	"testing"
	"time"
)

// loadtest must refuse, before it dials, a worker count that would panic
// in make or send nothing, and a duration that sends nothing.
func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		workers int
		dur     time.Duration
		ok      bool
	}{
		{64, 5 * time.Second, true},
		{1, time.Nanosecond, true},
		{0, 5 * time.Second, false},
		{-1, 5 * time.Second, false},
		{16, 0, false},
		{16, -time.Second, false},
		{0, 0, false},
	} {
		if err := checkLoad(c.workers, c.dur); (err == nil) != c.ok {
			t.Errorf("checkLoad(%d, %v) = %v, want ok %v", c.workers, c.dur, err, c.ok)
		}
	}
}
