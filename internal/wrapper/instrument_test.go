package wrapper

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// stormView is a process that stays hungry with every local copy stale —
// the state in which W' resends at every deadline. That only happens in a
// real run when the queueing wait exceeds δ by whole multiples: a
// well-tuned δ clears the guard within one or two windows (E5's sweep).
func stormView() *view {
	return &view{
		id:    1,
		n:     3,
		phase: tme.Hungry,
		req:   ltime.Timestamp{Clock: 5, PID: 1},
		local: map[int]ltime.Timestamp{0: ltime.Zero, 2: ltime.Zero},
	}
}

// jitter is the lateness of firing k, in (0, 100]: a timer fires a little
// after its deadline, and never by the same amount twice in a row.
func jitter(k int) int64 { return int64(k*37%100) + 1 }

func TestStormGuardFiresOnSustainedResends(t *testing.T) {
	// An armed W' fires δ after the request and again every δ it stays
	// hungry, each time a little late: firings δ plus jitter apart, all for
	// one REQ. No two are exactly δ apart, as on a nanosecond wall clock.
	const delta = 4000
	o := obs.New(obs.Options{})
	w := InstrumentLevel2(o, 1, NewTimed(delta)).(*Instrumented)
	if w.Delta != delta {
		t.Fatalf("Delta = %d, want %d (TimeoutDelta not picked up)", w.Delta, delta)
	}

	var warns int
	w.Warn = func(id, streak int, d int64) {
		warns++
		if id != 1 || d != delta {
			t.Errorf("Warn(id=%d, streak=%d, delta=%d)", id, streak, d)
		}
		if streak != stormAfter {
			t.Errorf("warned at streak %d, want the threshold %d", streak, stormAfter)
		}
	}

	v := stormView()
	storms := o.Registry().Counter("wrapper_resend_storm_total", "")
	fires := o.Registry().Counter("wrapper_fires_total", "")
	now := int64(0)
	for k := 1; k <= stormAfter+3; k++ {
		now += delta + jitter(k)
		w.Fire(now, v)
		if fires.Value() != int64(k) {
			t.Fatalf("firing %d: wrapper_fires_total = %d, the guard did not open", k, fires.Value())
		}
		// The threshold is crossed at the stormAfter-th firing, and every
		// further firing for the same request is another storm window.
		want := int64(max(0, k-stormAfter+1))
		if got := storms.Value(); got != want {
			t.Fatalf("after firing %d: wrapper_resend_storm_total = %d, want %d", k, got, want)
		}
	}
	if warns != 1 {
		t.Errorf("Warn called %d times, want exactly 1", warns)
	}
}

func TestStormGuardQuietOnTransientRecovery(t *testing.T) {
	// The healthy pattern: a request outlives a few windows, then enters,
	// and the next request carries a fresh REQ, which starts the streak
	// again. Firings keep their δ-plus-jitter rhythm across requests, so
	// only the REQ tells the bursts apart.
	const delta = 4000
	o := obs.New(obs.Options{})
	w := InstrumentLevel2(o, 1, NewTimed(delta)).(*Instrumented)
	w.Warn = func(int, int, int64) { t.Error("warned on transient recovery") }

	now := int64(0)
	for burst := 0; burst < 5; burst++ {
		v := stormView()
		v.req.Clock += uint64(10 * burst)
		for k := 0; k < stormAfter-1; k++ { // stay just under threshold
			now += delta + jitter(k)
			if len(w.Fire(now, v)) == 0 {
				t.Fatalf("burst %d firing %d: the guard did not open", burst, k)
			}
		}
	}
	if got := o.Registry().Counter("wrapper_resend_storm_total", "").Value(); got != 0 {
		t.Errorf("storm counter = %d on transient bursts, want 0", got)
	}
}

func TestStormGuardDisabledWithoutDelta(t *testing.T) {
	// An inner wrapper with no TimeoutDelta (plain W) leaves the guard off:
	// W legitimately fires every tick, which is not a resend storm.
	o := obs.New(obs.Options{})
	w := InstrumentLevel2(o, 1, Func(W)).(*Instrumented)
	w.Warn = func(int, int, int64) { t.Error("warned with guard disabled") }
	v := stormView()
	for now := int64(0); now < 100; now++ {
		w.Fire(now, v)
	}
	if got := o.Registry().Counter("wrapper_resend_storm_total", "").Value(); got != 0 {
		t.Errorf("storm counter = %d with δ unknown, want 0", got)
	}
}
