package main

import (
	"math"
	"testing"
	"time"
)

// serve must refuse, before it builds a tenant, a -rollback-factor that
// would arm no rollback: a positive one without -registry, and a negative
// or non-finite one.
func TestCheckServe(t *testing.T) {
	for _, c := range []struct {
		regDir   string
		rollback float64
		ok       bool
	}{
		{"", 0, true},
		{"/reg", 0, true},
		{"/reg", 3, true},
		{"", 3, false},
		{"", -1, false},
		{"/reg", -1, false},
		{"/reg", math.NaN(), false},
		{"/reg", math.Inf(1), false},
	} {
		if err := checkServe(c.regDir, c.rollback); (err == nil) != c.ok {
			t.Errorf("checkServe(%q, %v) = %v, want ok %v", c.regDir, c.rollback, err, c.ok)
		}
	}
}

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
