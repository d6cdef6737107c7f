package wallclock

import (
	"testing"
	"time"
)

// timers runs f on a timer of each kind this platform serves: NewTimer's
// (a timerfd on Linux) and the portable one.
func timers(t *testing.T, f func(t *testing.T, tm *Timer)) {
	t.Helper()
	for _, k := range []struct {
		name string
		make func() *Timer
	}{
		{"NewTimer", NewTimer},
		{"portable", func() *Timer { return newPortable(make(chan struct{}, 1)) }},
	} {
		t.Run(k.name, func(t *testing.T) {
			tm := k.make()
			defer tm.Close()
			f(t, tm)
		})
	}
}

// fired reports whether tm fires within d.
func fired(tm *Timer, d time.Duration) bool {
	wait := time.NewTimer(d)
	defer wait.Stop()
	select {
	case <-tm.C:
		return true
	case <-wait.C:
		return false
	}
}

func TestNewTimerStartsDisarmed(t *testing.T) {
	timers(t, func(t *testing.T, tm *Timer) {
		if fired(tm, 20*time.Millisecond) {
			t.Error("a new timer fired without being armed")
		}
	})
}

// TestResetReaims: Reset re-aims a pending timer both earlier and later,
// and fires once per arming.
func TestResetReaims(t *testing.T) {
	timers(t, func(t *testing.T, tm *Timer) {
		start := time.Now()
		tm.Reset(time.Hour)
		tm.Reset(2 * time.Millisecond) // earlier
		if !fired(tm, time.Second) {
			t.Fatal("re-aimed earlier, the timer did not fire")
		}
		if el := time.Since(start); el < 2*time.Millisecond {
			t.Errorf("re-aimed to 2ms, fired after %v", el)
		}

		start = time.Now()
		tm.Reset(10 * time.Millisecond)
		tm.Reset(80 * time.Millisecond) // later
		if fired(tm, 40*time.Millisecond) {
			t.Fatal("re-aimed later, the timer still fired at its first aim")
		}
		if !fired(tm, time.Second) {
			t.Fatal("re-aimed later, the timer never fired")
		}
		if el := time.Since(start); el < 80*time.Millisecond {
			t.Errorf("re-aimed to 80ms, fired after %v", el)
		}
		if fired(tm, 20*time.Millisecond) {
			t.Error("one arming fired twice")
		}

		tm.Reset(0)
		if !fired(tm, time.Second) {
			t.Error("Reset(0) did not fire")
		}
	})
}

// TestStopSilencesAndSleepToleratesAStaleFire: Stop silences a pending
// expiry, and a stale fire left on C (one that raced a Stop or Reset)
// neither ends a Sleep early nor outlives a Reset.
func TestStopSilencesAndSleepToleratesAStaleFire(t *testing.T) {
	timers(t, func(t *testing.T, tm *Timer) {
		tm.Reset(5 * time.Millisecond)
		tm.Stop()
		if fired(tm, 30*time.Millisecond) {
			t.Error("a stopped timer fired")
		}

		post(tm.c) // the stale fire
		start := time.Now()
		if !tm.Sleep(nil, 10*time.Millisecond) {
			t.Fatal("Sleep with no stop reported a stop")
		}
		if el := time.Since(start); el < 10*time.Millisecond {
			t.Errorf("a stale fire ended a 10ms Sleep after %v", el)
		}

		stop := make(chan struct{})
		close(stop)
		if tm.Sleep(stop, time.Hour) {
			t.Error("a closed stop did not end the Sleep")
		}
		if !tm.Sleep(stop, 0) {
			t.Error("a zero Sleep did not return at once")
		}
	})
}
