// Package lib declares one export of each kind the checker judges.
package lib

// Dead has no caller at all.
func Dead() {}

// TestOnly is called only from lib_test.go.
func TestOnly() {}

// Used is called by cmd/app.
func Used() {}

// PureOnly is called only from a file that -tags purego selects.
func PureOnly() {}

// Listed is dead and on the allowlist.
func Listed() {}

// T is used by cmd/app, which prints it without naming String.
type T struct{}

// String satisfies fmt.Stringer.
func (T) String() string { return "T" }

// Extra is a dead method of a live type.
func (T) Extra() {}
