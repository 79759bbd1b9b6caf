// Package lib is a fixture for the exported-surface check in exports_test.go.
package lib

// OnlyTests has no caller but lib_test.go: the check reports it.
func OnlyTests() {}

// OnlyPerfbench has no caller but perfbench/: the check counts that.
func OnlyPerfbench() {}

// Allowed has no caller, but the fixture's allowlist names it.
func Allowed() {}
