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

// Config is audited by rule 4: cmd/app sets three of its options.
type Config struct {
	Literal      int // set by cmd/app in a composite literal
	Assigned     int // assigned by cmd/app
	Addressed    int // set by cmd/app through &c.Addressed
	DefaultsOnly int // set only by withDefaults
	TestsOnly    int // set only by tests, this package's and another's
	Exempt       int // set by nothing; TestSurfaceAllowList exempts it
	private      int // unexported: not an option
}

func (c Config) withDefaults() Config {
	if c.DefaultsOnly == 0 {
		c.DefaultsOnly = 9
	}
	c.private = 1
	return c
}

// Run reads every option.
func Run(c Config) int {
	c = c.withDefaults()
	return c.Literal + c.Assigned + c.Addressed + c.DefaultsOnly + c.TestsOnly + c.Exempt + c.private
}

// Settings is not audited: its name ends in neither Config nor Options.
type Settings struct{ Unset int }

// Read reads Settings.
func Read(s Settings) int { return s.Unset }
