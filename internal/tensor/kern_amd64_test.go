//go:build amd64 && !purego

package tensor

import "testing"

// The tiers this CPU has, as the init-time check found them.
var hasAVX2, hasAVX512 = useAVX2, useAVX512

// eachTier runs f once for each kernel tier this CPU has — the Go loops,
// AVX2 and AVX-512 — with the dispatch switched to it, and restores the
// dispatch after. A tier the CPU lacks is logged and skipped.
func eachTier(t testing.TB, f func(tier string)) {
	t.Helper()
	defer func() { useAVX2, useAVX512 = hasAVX2, hasAVX512 }()
	for _, tr := range []struct {
		name         string
		avx2, avx512 bool
	}{{"go", false, false}, {"avx2", true, false}, {"avx512", true, true}} {
		if tr.avx2 && !hasAVX2 || tr.avx512 && !hasAVX512 {
			t.Logf("this CPU has no %s: that tier is not checked", tr.name)
			continue
		}
		useAVX2, useAVX512 = tr.avx2, tr.avx512
		f(tr.name)
	}
}
