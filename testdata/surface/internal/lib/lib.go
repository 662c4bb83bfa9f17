// Package lib holds one declaration of each kind the surface gate sorts.
package lib

// Used is called by cmd/app.
func Used() int { return helper() }

// Unused is referred to by nothing.
func Unused() int { return 1 }

// OwnTestsOnly is referred to only by this package's tests.
func OwnTestsOnly() int { return 2 }

// OtherTestsOnly is referred to only by another package's tests.
func OtherTestsOnly() int { return 3 }

// T is printed by cmd/app.
type T struct{}

// String is called only through fmt.Stringer.
func (T) String() string { return "t" }

func helper() int { return 0 }

// Sizer is called through by cmd/app.
type Sizer interface{ Size() int }

// Box is a Sizer.
type Box struct{}

// Size is called only through Sizer.
func (Box) Size() int { return 6 }

// testOnly is referred to only by this package's tests.
func testOnly() int { return 7 }

// unused is referred to by nothing.
func unused() int { return 8 }
