package wallclock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

const clockMonotonic = 1 // CLOCK_MONOTONIC

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// timerFD is a CLOCK_MONOTONIC timerfd read through the netpoller by one
// relay goroutine, which turns each expiry into a call of the Timer's fire
// function.
type timerFD struct {
	fd   uintptr       // the descriptor, for timerfd_settime; f owns it
	f    *os.File      // the pollable file the relay reads
	done chan struct{} // closed when the relay has exited
}

// openTimerFD creates a disarmed timerfd whose relay calls fire once per
// expiry; nil when the kernel refuses one (the descriptor limit, say).
func openTimerFD(fire func()) *timerFD {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	// A non-blocking descriptor makes a pollable File: Read parks on the
	// netpoller until the timer expires.
	t := &timerFD{fd: fd, f: os.NewFile(fd, "timerfd"), done: make(chan struct{})}
	//gblint:ignore determinism the relay that turns a timerfd's expiry into a fire
	go t.relay(fire)
	return t
}

// relay calls fire once per read of an expiry, until the file is closed.
// One goroutine makes every call, so they never overlap.
func (t *timerFD) relay(fire func()) {
	defer close(t.done)
	var expiries [8]byte // the kernel's expiry count, which a one-shot timer does not need
	for {
		if _, err := t.f.Read(expiries[:]); err != nil {
			return // closed: a timerfd read fails no other way
		}
		fire()
	}
}

// set arms the timer d from now. A zero it_value would disarm it, so
// d <= 0 arms it a nanosecond on.
func (t *timerFD) set(d time.Duration) {
	var spec itimerspec
	spec.value = syscall.NsecToTimespec(max(int64(d), 1))
	t.settime(&spec)
}

// disarm stops the timer; a pending expiry the relay has not read is
// discarded by the kernel.
func (t *timerFD) disarm() { t.settime(&itimerspec{}) }

func (t *timerFD) settime(spec *itimerspec) {
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(spec)), 0, 0, 0)
	if errno != 0 {
		// Only a closed descriptor or a malformed spec fails, and both are
		// bugs in this package.
		panic("wallclock: timerfd_settime: " + errno.Error())
	}
}

// close wakes the relay's Read with os.ErrClosed and waits for it to exit,
// and so for a fire in progress to return; the descriptor is closed when
// the Read releases it.
func (t *timerFD) close() {
	_ = t.f.Close() // a timer has no buffered data to lose
	<-t.done
}
