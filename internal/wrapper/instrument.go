package wrapper

import (
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// Instrumented decorates a Level2 wrapper with observability: it counts
// guard evaluations, guard openings (firings), and corrective sends, and
// emits a trace event per firing. It changes no behaviour — the inner
// wrapper's messages pass through untouched — so the interference-freedom
// results (Lemma 6) are unaffected.
//
// Nil instruments are valid (obs off): the decorator then costs a few
// nil-receiver calls per evaluation.
type Instrumented struct {
	// Inner is the wrapped Level2 (required).
	Inner Level2
	// ID is the owning process, recorded on trace events.
	ID int
	// Evals counts guard evaluations; Fires counts evaluations whose guard
	// opened; Sends counts corrective messages produced.
	Evals, Fires, Sends *obs.Counter
	// Trace receives one EvWrapperFire event per opening (nil = no trace).
	Trace *obs.Trace

	// Resend-storm guard. A W' that keeps firing for the same request is
	// not correcting a transient fault: the hungry stretch is outliving
	// whole timeout periods, which means δ sits far below the real
	// queueing wait (E5's δ sweep, and the E17 resend flood) or a peer is
	// cut off, and every window burns (n−1) resends for nothing. The
	// streak is keyed on the request, REQ_j, an Lspec variable: a firing
	// for a new REQ starts it again, so resends followed by an entry were
	// contention, not a storm. Delta is the wrapper's timeout (taken from a
	// TimeoutDelta-capable inner wrapper; 0 disables the guard), and Storms
	// counts the firings at or past the stormAfter-th of one streak.
	Delta int64
	// Storms is the wrapper_resend_storm_total counter.
	Storms *obs.Counter

	streak  int
	lastREQ ltime.Timestamp
}

// stormAfter is the storm threshold: firing 8 δ-windows for one request
// cannot be transient recovery — at the δ values the experiments use, real
// convergence completes within one or two windows.
const stormAfter = 8

// TimeoutDelta exposes the W' timeout to the instrumentation layer.
func (t *Timed) TimeoutDelta() int64 { return t.Delta }

// Timeout is l2's W' timeout δ, read through its TimeoutDelta method; 0
// for a wrapper without one (the eager W, such as a Func).
func Timeout(l2 Level2) int64 {
	if td, ok := l2.(interface{ TimeoutDelta() int64 }); ok {
		return td.TimeoutDelta()
	}
	return 0
}

var _ Level2 = (*Instrumented)(nil)

// Fire evaluates the inner wrapper and publishes the outcome.
func (w *Instrumented) Fire(now int64, v tme.SpecView) []tme.Message {
	msgs := w.Inner.Fire(now, v)
	w.Evals.Inc()
	if len(msgs) > 0 {
		w.Fires.Inc()
		w.Sends.Add(int64(len(msgs)))
		w.Trace.Emit(obs.Event{
			Time: now, Kind: obs.EvWrapperFire, A: w.ID, B: -1, N: len(msgs),
		})
		if w.Delta > 0 {
			w.noteFire(v.REQ())
		}
	}
	return msgs
}

// noteFire tracks consecutive firings for one request for the storm guard.
func (w *Instrumented) noteFire(req ltime.Timestamp) {
	if w.streak > 0 && req == w.lastREQ {
		w.streak++
	} else {
		w.streak = 1
	}
	w.lastREQ = req
	if w.streak >= stormAfter {
		w.Storms.Inc()
	}
}

// InstrumentLevel2 wraps l2 for process id against o's registry and trace.
// It returns l2 unchanged when o is nil — disabled observability leaves
// the wrapper stack untouched.
func InstrumentLevel2(o *obs.Obs, id int, l2 Level2) Level2 {
	if o == nil {
		return l2
	}
	r := o.Registry()
	return &Instrumented{
		Inner:  l2,
		ID:     id,
		Evals:  r.Counter("wrapper_evals_total", "level-2 wrapper guard evaluations"),
		Fires:  r.Counter("wrapper_fires_total", "level-2 wrapper guard openings"),
		Sends:  r.Counter("wrapper_msgs_total", "corrective messages sent by level-2 wrappers"),
		Trace:  o.Tracer(),
		Delta:  Timeout(l2),
		Storms: r.Counter("wrapper_resend_storm_total", "δ-windows fired past the consecutive-firing storm threshold"),
	}
}
