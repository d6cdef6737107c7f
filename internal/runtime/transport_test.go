package runtime

import (
	"testing"

	"github.com/graybox-stabilization/graybox/internal/tme"
)

// TestForwarderSteadyStateAllocatesNothing: once an edge's mailbox has
// grown, the in-process transport carries a message (queue, delay on the
// forwarder's one timer, deliver) without allocating.
func TestForwarderSteadyStateAllocatesNothing(t *testing.T) {
	var ins rtInstruments
	tr := newChanTransport(Config{N: 2, Seed: 1}.withDefaults(), &ins)
	got := make(chan tme.Message, 1)
	tr.Start(func(_ int, m tme.Message) { got <- m })
	defer tr.Close()
	m := tme.Message{Kind: tme.Request, From: 0, To: 1}
	carry := func() {
		tr.Send(m)
		if r := <-got; r != m {
			t.Fatalf("delivered %+v, want %+v", r, m)
		}
	}
	carry()
	if a := testing.AllocsPerRun(50, carry); a != 0 {
		t.Errorf("carrying a message allocates %.1f, want 0", a)
	}
}
