package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until due. The runtime's timers wake through epoll
// with millisecond granularity, which on an idle process makes
// time.Sleep about half a millisecond late — as long as a whole cache
// miss. nanosleep(2) on the calling thread is accurate to the kernel's
// timer slack (50 µs by default), so the pacer uses it for all but the
// last stretch and spins that out.
func sleepUntil(due time.Time) {
	const spin = 60 * time.Microsecond
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spin {
			ts := syscall.NsecToTimespec((d - spin).Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
	}
}
