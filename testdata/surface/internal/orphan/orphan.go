// Package orphan is linked by no package.
package orphan

// Orphan is reported with its package, not on its own.
func Orphan() int { return 5 }
