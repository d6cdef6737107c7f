package sim

import (
	"slices"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// TestDrawsAreIsolatedFromTheClient is the isolation property of named
// streams: with equal seeds, changing only the built-in client's think bound
// changes the run, but moves neither the link delays (the i-th message sent
// gets the same delay, read from its send event) nor the fault classes the
// injector picks. Each draws from a stream of its own.
func TestDrawsAreIsolatedFromTheClient(t *testing.T) {
	run := func(thinkMax int64) (delays []int, faults []string, entries int) {
		o := obs.New(obs.Options{TraceCapacity: 1, OnEvent: func(e obs.Event) {
			switch e.Kind {
			case obs.EvSend:
				delays = append(delays, e.N)
			case obs.EvFault:
				faults = append(faults, e.Detail)
			}
		}})
		s := New(Config{
			N: 4, Seed: 11, NewNode: raFactory, Workload: true,
			ThinkMin: 1, ThinkMax: thinkMax, Obs: o,
			NewWrapper: func(int) wrapper.Level2 { return wrapper.NewTimed(20) },
		})
		fault.NewInjector(5, fault.DefaultMix).Schedule(s, []int64{100, 200, 300, 400}, 5)
		s.Run(600)
		return delays, faults, len(s.Metrics().Entries)
	}
	delaysA, faultsA, entriesA := run(10)
	delaysB, faultsB, entriesB := run(40)
	if entriesA == entriesB && len(delaysA) == len(delaysB) {
		t.Fatalf("both runs entered %d times and sent %d messages: the think bound changed nothing, so the test shows nothing", entriesA, len(delaysA))
	}
	k := min(len(delaysA), len(delaysB))
	if k < 100 {
		t.Fatalf("only %d messages in common; the comparison is too short", k)
	}
	if !slices.Equal(delaysA[:k], delaysB[:k]) {
		t.Errorf("link delays moved with the client's think bound:\n%v\n%v", delaysA[:k], delaysB[:k])
	}
	if len(faultsA) != 20 || !slices.Equal(faultsA, faultsB) {
		t.Errorf("fault classes moved with the client's think bound:\n%v\n%v", faultsA, faultsB)
	}
	for _, d := range delaysA {
		if d < 1 || d > 5 {
			t.Fatalf("a send event carries delay %d, outside the default [1, 5]", d)
		}
	}
}
