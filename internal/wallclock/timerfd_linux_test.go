package wallclock

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestTimerFiresOnTime: over 50 waits of 300 µs, the median lasts under
// 700 µs. A time.Timer's reads about 1,080 µs on an idle process, where
// the netpoller rounds its wait up to a whole millisecond.
func TestTimerFiresOnTime(t *testing.T) {
	tm := NewTimer()
	defer tm.Close()
	if tm.fd == nil {
		t.Fatal("NewTimer on Linux is not a timerfd")
	}
	const want = 300 * time.Microsecond
	waits := make([]time.Duration, 50)
	for i := range waits {
		start := time.Now()
		tm.Reset(want)
		<-tm.C
		waits[i] = time.Since(start)
		if waits[i] < want {
			t.Fatalf("a %v wait fired after %v", want, waits[i])
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med >= 700*time.Microsecond {
		t.Errorf("median %v wait lasted %v, want under 700µs (p10 %v, p90 %v)", want, med, waits[5], waits[45])
	}
}

// TestTimerAllocatesNothing: after its first arming, a timer's Reset,
// fire and Stop allocate nothing.
func TestTimerAllocatesNothing(t *testing.T) {
	tm := NewTimer()
	defer tm.Close()
	tm.Reset(time.Microsecond)
	<-tm.C
	if a := testing.AllocsPerRun(50, func() {
		tm.Reset(time.Microsecond)
		<-tm.C
		tm.Reset(time.Hour)
		tm.Stop()
	}); a != 0 {
		t.Errorf("Reset, fire and Stop allocate %.1f, want 0", a)
	}
}

// TestCloseReleasesRelayAndDescriptor: Close ends each timer's relay
// goroutine and closes its descriptor.
func TestCloseReleasesRelayAndDescriptor(t *testing.T) {
	const n = 8
	NewTimer().Close() // the netpoller opens its own descriptors on first use
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	ts := make([]*Timer, n)
	for i := range ts {
		ts[i] = NewTimer()
		ts[i].Reset(time.Microsecond)
		<-ts[i].C
	}
	if g := runtime.NumGoroutine(); g != goroutines+n {
		t.Errorf("%d timers run %d goroutines more, want %d", n, g-goroutines, n)
	}
	if f := openFDs(t); f != fds+n {
		t.Errorf("%d timers hold %d descriptors more, want %d", n, f-fds, n)
	}
	for _, tm := range ts {
		tm.Close()
		tm.Close()
	}
	if g := runtime.NumGoroutine(); g != goroutines {
		t.Errorf("after Close, %d goroutines left behind", g-goroutines)
	}
	if f := openFDs(t); f != fds {
		t.Errorf("after Close, %d descriptors left open", f-fds)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}
