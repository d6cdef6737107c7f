// Package wallclock is the live path's one clock seam: Now reads the wall
// clock, and Timer waits on it for as long as it is asked to.
//
// Go's own timers overshoot to the next whole millisecond once a process
// goes idle: the netpoller gives epoll_wait a timeout in whole
// milliseconds, so a 100 µs time.Timer fires after about 1.08 ms and a
// 1.5 ms one after about 2.2 ms. On Linux a Timer is a non-blocking timerfd
// (CLOCK_MONOTONIC) registered with the netpoller, whose expiry makes the
// descriptor readable and wakes epoll_wait at once: the same waits fire
// after about 0.11 and 1.53 ms. One relay goroutine per Timer reads the
// descriptor and fires the timer: a non-blocking send on C for NewTimer's,
// a call of its function for NewFuncTimer's. On other platforms, and on
// Linux if the kernel refuses a timerfd, time.AfterFunc fires it with no
// goroutine of the Timer's own.
//
// C may carry one stale fire after Stop or Reset: an expiry that raced the
// call. Every caller re-checks the clock when C fires (Sleep re-aims until
// its due time has passed), so a stale fire costs one spurious wake-up,
// never an early one.
//
// No other package of the live path reads the wall clock or waits on it;
// gblint's determinism pass holds them to that.
package wallclock

import (
	"sync"
	"time"
)

// Now returns the wall clock in Unix nanoseconds.
func Now() int64 {
	return time.Now().UnixNano() //gblint:ignore determinism the live path's one wall-clock read
}

// Timer is a reusable one-shot wall-clock timer. It has one owner:
// Reset, Stop, Sleep and Close are not safe to call concurrently (a
// NewFuncTimer's fire function shares it under the owner's lock), and a
// Timer is not used after Close.
type Timer struct {
	// C receives a value when the timer fires. It holds at most one; it is
	// nil on a NewFuncTimer timer.
	C <-chan struct{}
	c chan struct{}
	// fd is the timerfd serving the timer; af serves it when fd is nil.
	fd *timerFD
	af *time.Timer
	// run serializes af's fires, and closed, set under it by Close, ends
	// them: time.AfterFunc starts a goroutine per fire, so without it two
	// fires could overlap, and one could outlive Close.
	run    sync.Mutex
	closed bool // guarded by run
}

// NewTimer returns a disarmed timer that fires onto C.
func NewTimer() *Timer {
	c := make(chan struct{}, 1)
	t := NewFuncTimer(func() { post(c) })
	t.C, t.c = c, c
	return t
}

// NewFuncTimer returns a disarmed timer that calls fire, on a goroutine of
// the timer's own, each time it fires; C stays nil. Calls of fire never
// overlap, and none runs once Close has returned. fire may Reset or Stop
// its timer, and the owner shares the timer with it, so both must hold
// one lock of the owner's around every Reset and Stop. Close waits for a
// call in progress, so the owner calls it outside that lock, once fire can
// no longer reach the timer.
func NewFuncTimer(fire func()) *Timer {
	if fd := openTimerFD(fire); fd != nil {
		return &Timer{fd: fd}
	}
	return newPortable(fire)
}

// newPortable returns a disarmed timer served by time.AfterFunc, calling
// fire at each fire.
func newPortable(fire func()) *Timer {
	t := &Timer{}
	//gblint:ignore determinism the portable timer, where there is no timerfd
	t.af = time.AfterFunc(time.Hour, func() {
		t.run.Lock()
		defer t.run.Unlock()
		if !t.closed {
			fire()
		}
	})
	t.af.Stop()
	return t
}

// post sends one fire on c, unless one is already waiting there.
func post(c chan<- struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// drain discards a fire waiting on C.
func (t *Timer) drain() {
	select {
	case <-t.c:
	default:
	}
}

// Reset arms the timer to fire d from now, replacing any pending expiry;
// d <= 0 fires at once. A fire already on C is discarded first, but one
// racing the call may still arrive.
func (t *Timer) Reset(d time.Duration) {
	t.drain()
	if t.fd != nil {
		t.fd.set(d)
		return
	}
	t.af.Reset(d)
}

// Stop disarms the timer and discards a fire waiting on C; one racing the
// call may still arrive.
func (t *Timer) Stop() {
	if t.fd != nil {
		t.fd.disarm()
	} else {
		t.af.Stop()
	}
	t.drain()
}

// Sleep waits until d has passed or stop closes, and reports whether d
// passed. It re-aims the timer until the clock reads its due time, so a
// stale fire never ends it early. d <= 0 returns true at once.
func (t *Timer) Sleep(stop <-chan struct{}, d time.Duration) bool {
	due := Now() + int64(d)
	for d > 0 {
		t.Reset(d)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return false
		}
		d = time.Duration(due - Now())
	}
	return true
}

// Close disarms the timer and releases it. On return no fire is in
// progress and none follows, and a timerfd's relay goroutine has exited
// and its descriptor is closed. A second Close is a no-op.
func (t *Timer) Close() {
	if t.fd != nil {
		t.fd.close()
		t.fd = nil
	}
	if t.af != nil {
		t.af.Stop()
		t.run.Lock()
		t.closed = true
		t.run.Unlock()
	}
}
