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
// descriptor and does a non-blocking send on C. On other platforms, and on
// Linux if the kernel refuses a timerfd, time.AfterFunc does the same send
// with no goroutine.
//
// C may carry one stale fire after Stop or Reset: an expiry that raced the
// call. Every caller re-checks the clock when C fires (Sleep re-aims until
// its due time has passed), so a stale fire costs one spurious wake-up,
// never an early one.
//
// No other package of the live path reads the wall clock or waits on it;
// gblint's determinism pass holds them to that.
package wallclock

import "time"

// Now returns the wall clock in Unix nanoseconds.
func Now() int64 {
	return time.Now().UnixNano() //gblint:ignore determinism the live path's one wall-clock read
}

// Timer is a reusable one-shot wall-clock timer. It has one owner:
// Reset, Stop, Sleep and Close are not safe to call concurrently, and a
// Timer is not used after Close.
type Timer struct {
	// C receives a value when the timer fires. It holds at most one.
	C <-chan struct{}
	c chan struct{}
	// fd is the timerfd serving the timer; af serves it when fd is nil.
	fd *timerFD
	af *time.Timer
}

// NewTimer returns a disarmed timer.
func NewTimer() *Timer {
	c := make(chan struct{}, 1)
	if fd := openTimerFD(c); fd != nil {
		return &Timer{C: c, c: c, fd: fd}
	}
	return newPortable(c)
}

// newPortable returns a disarmed timer served by time.AfterFunc, firing
// onto c.
func newPortable(c chan struct{}) *Timer {
	t := &Timer{C: c, c: c}
	//gblint:ignore determinism the portable timer, where there is no timerfd
	t.af = time.AfterFunc(time.Hour, func() { post(c) })
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

// Close disarms the timer and releases it. On return a timerfd's relay
// goroutine has exited and its descriptor is closed. A second Close is a
// no-op.
func (t *Timer) Close() {
	if t.fd != nil {
		t.fd.close()
		t.fd = nil
	}
	if t.af != nil {
		t.af.Stop()
		t.af = nil
	}
}
