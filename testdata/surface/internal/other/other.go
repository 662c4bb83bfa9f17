// Package other is linked by cmd/app.
package other

// Other is called by cmd/app.
func Other() int { return 4 }
