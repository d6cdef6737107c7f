//go:build !linux

package wallclock

import "time"

// timerFD exists only on Linux; elsewhere every Timer is the portable one.
type timerFD struct{}

func openTimerFD(chan<- struct{}) *timerFD { return nil }

func (*timerFD) set(time.Duration) {}
func (*timerFD) disarm()           {}
func (*timerFD) close()            {}
