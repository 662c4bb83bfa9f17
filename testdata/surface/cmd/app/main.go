// Command app links lib and other, prints a lib.T through fmt, and calls
// a lib.Box through the lib.Sizer interface.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	var s lib.Sizer = lib.Box{}
	fmt.Println(lib.Used(), other.Other(), lib.T{}, s.Size())
}
