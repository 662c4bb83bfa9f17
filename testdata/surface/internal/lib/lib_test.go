package lib

import "testing"

func TestOwnTestsOnly(t *testing.T) {
	if OwnTestsOnly() != 2 || testOnly() != 7 || Run(Config{TestsOnly: 1}) == 0 {
		t.Fail()
	}
}
