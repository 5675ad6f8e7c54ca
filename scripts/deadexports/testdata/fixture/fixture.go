// Package fixture is the module's root package, swept like the packages
// under internal/.
package fixture

// Facade is called by cmd/app.
func Facade() {}

// Unused has no caller.
func Unused() {}
