package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestOtherTestsOnly(t *testing.T) {
	c := lib.Config{}
	c.TestsOnly = 2
	if lib.OtherTestsOnly() != 3 || lib.Run(c) == 0 {
		t.Fail()
	}
}
