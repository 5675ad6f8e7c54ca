//go:build !amd64 || purego

package tensor

import "testing"

// eachTier runs f over the one tier this build has, the Go loops.
func eachTier(t testing.TB, f func(tier string)) { f("go") }
