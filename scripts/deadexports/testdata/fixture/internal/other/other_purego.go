//go:build purego

package other

import "fixture/internal/lib"

// Run is what cmd/app calls.
func Run() { lib.PureOnly() }
