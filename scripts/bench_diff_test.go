package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, meta string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	body := `{` + meta + `"BenchmarkX": {"ns_per_op": 10, "bytes_per_op": 0, "allocs_per_op": 0}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadMeta(t *testing.T, meta string) snapMeta {
	t.Helper()
	snap, m, err := loadSnapshot(writeSnap(t, meta))
	if err != nil {
		t.Fatal(err)
	}
	if snap["BenchmarkX"].NsPerOp != 10 {
		t.Fatalf("benchmark entry lost next to _meta: %+v", snap)
	}
	return m
}

func TestSameShape(t *testing.T) {
	const (
		avx2   = `"_meta": {"gomaxprocs": 1, "cpus": 2, "simd": "avx2", "parallel_slope_ns": {"workers=1/inline": 2668}},`
		none   = `"_meta": {"gomaxprocs": 1, "cpus": 2, "simd": "none", "parallel_slope_ns": {}},`
		avx512 = `"_meta": {"gomaxprocs": 1, "cpus": 2, "simd": "avx512", "parallel_slope_ns": {}},`
		cpus4  = `"_meta": {"gomaxprocs": 1, "cpus": 4, "simd": "avx2", "parallel_slope_ns": {}},`
		procs2 = `"_meta": {"gomaxprocs": 2, "cpus": 2, "simd": "avx2", "parallel_slope_ns": {}},`
		legacy = `"_meta": {"gomaxprocs": 1, "cpus": 2, "parallel_slope_ns": {}},` // before _meta.simd
		bare   = ``                                                                // before _meta
	)
	base := loadMeta(t, avx2)
	for _, c := range []struct {
		name, meta string
		same       bool
	}{
		{"match", avx2, true},
		{"simd differs", none, false},
		{"assembly tier differs", avx512, false},
		{"cpus differ", cpus4, false},
		{"gomaxprocs differs", procs2, false},
		{"legacy without simd", legacy, true},
		{"legacy without _meta", bare, true},
	} {
		other := loadMeta(t, c.meta)
		if got := sameShape(other, base); got != c.same {
			t.Errorf("%s: sameShape(%s, %s) = %v, want %v", c.name, other, base, got, c.same)
		}
		if got := sameShape(base, other); got != c.same {
			t.Errorf("%s: sameShape is not symmetric", c.name)
		}
	}
	if s := loadMeta(t, legacy).String(); !strings.Contains(s, "cpus=2") || !strings.Contains(s, "simd=?") {
		t.Errorf("legacy shape prints as %q", s)
	}
	if s := base.String(); s != "cpus=2 gomaxprocs=1 simd=avx2" {
		t.Errorf("shape prints as %q", s)
	}
}
