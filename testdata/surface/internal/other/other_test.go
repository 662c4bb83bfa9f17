package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestOtherTestsOnly(t *testing.T) {
	if lib.OtherTestsOnly() != 3 {
		t.Fail()
	}
}
