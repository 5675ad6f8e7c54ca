//go:build !purego

// Package other calls PureOnly only under -tags purego.
package other

// Run is what cmd/app calls.
func Run() {}
