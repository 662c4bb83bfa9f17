//go:build !linux

package main

import "time"

// sleepUntil blocks until due; see pace_linux.go for why Linux does not
// use time.Sleep. Lateness is reported as loadgen.late_p50_ms either way.
func sleepUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}
