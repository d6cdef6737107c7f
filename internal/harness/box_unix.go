//go:build unix

package harness

import (
	"syscall"
	"time"
)

// processCPU is this process's CPU time so far, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return -1
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
