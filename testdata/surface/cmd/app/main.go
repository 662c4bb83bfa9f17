// Command app links lib and other, prints a lib.T through fmt, calls a
// lib.Box through the lib.Sizer interface, and sets three lib.Config
// options.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	var s lib.Sizer = lib.Box{}
	c := lib.Config{Literal: 1}
	c.Assigned = 2
	p := &c.Addressed
	*p = 3
	fmt.Println(lib.Used(), other.Other(), lib.T{}, s.Size(), lib.Run(c), lib.Read(lib.Settings{}))
}
