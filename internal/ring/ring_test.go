package ring

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/graybox-stabilization/graybox/internal/obs"
)

func eagerFactory(hold int) func(id, n int) Node {
	return func(id, n int) Node { return NewEager(id, n, hold) }
}

func lazyFactory(maxHold, serve int) func(id, n int) Node {
	return func(id, n int) Node { return NewLazy(id, n, maxHold, serve) }
}

func TestEagerAcceptSpec(t *testing.T) {
	e := NewEager(1, 3, 1)
	if !e.Accept(Token{Seq: 5}) {
		t.Fatal("fresh token rejected")
	}
	if e.Seq() != 5 || !e.Holding() {
		t.Fatalf("state after accept: seq=%d holding=%v", e.Seq(), e.Holding())
	}
	// Stale and duplicate tokens are discarded.
	if e.Accept(Token{Seq: 5}) || e.Accept(Token{Seq: 3}) {
		t.Error("stale token accepted")
	}
}

func TestEagerForwardsAfterHold(t *testing.T) {
	e := NewEager(0, 2, 3)
	e.Accept(Token{Seq: 1})
	for i := 0; i < 2; i++ {
		if tok := e.Tick(); tok != nil {
			t.Fatalf("forwarded after %d ticks, want 3", i+1)
		}
	}
	tok := e.Tick()
	if tok == nil {
		t.Fatal("never forwarded")
	}
	if tok.Seq != 2 {
		t.Errorf("forwarded seq = %d, want 2", tok.Seq)
	}
	if e.Holding() {
		t.Error("still holding after forward")
	}
	if e.Tick() != nil {
		t.Error("forwarded twice")
	}
}

func TestEagerHoldForClamped(t *testing.T) {
	e := NewEager(0, 2, 0)
	if e.HoldFor != 1 {
		t.Errorf("HoldFor = %d, want clamped to 1", e.HoldFor)
	}
}

func TestLazyForwardsImmediatelyWhenIdle(t *testing.T) {
	l := NewLazy(0, 3, 10, 2)
	l.Accept(Token{Seq: 1})
	if tok := l.Tick(); tok == nil {
		t.Fatal("idle lazy node kept the token")
	}
}

func TestLazyServesPendingThenForwards(t *testing.T) {
	l := NewLazy(0, 3, 10, 2)
	l.pending = 2 // two queued client requests
	l.Accept(Token{Seq: 1})
	forwarded := false
	for i := 0; i < 10 && !forwarded; i++ {
		forwarded = l.Tick() != nil
	}
	if !forwarded {
		t.Fatal("budget did not force a forward")
	}
	if l.pending != 0 {
		t.Errorf("pending = %d after serving window, want 0", l.pending)
	}
}

func TestLazyBudgetBoundsHold(t *testing.T) {
	l := NewLazy(0, 3, 4, 100) // service longer than budget
	l.pending = 1
	l.Accept(Token{Seq: 1})
	forwardedAt := -1
	for i := 1; i <= 10; i++ {
		if l.Tick() != nil {
			forwardedAt = i
			break
		}
	}
	if forwardedAt != 4 {
		t.Errorf("forwarded at tick %d, want 4 (MaxHold)", forwardedAt)
	}
}

func TestLazyClamps(t *testing.T) {
	l := NewLazy(0, 2, 0, 0)
	if l.MaxHold != 1 || l.ServeFor != 1 {
		t.Errorf("clamps failed: %d %d", l.MaxHold, l.ServeFor)
	}
}

func TestRegeneratorFiresOnlyAfterSilence(t *testing.T) {
	r := NewRegenerator(3)
	v := NewEager(0, 4, 1)
	// Holding: no fire, idle resets.
	v.Accept(Token{Seq: 1})
	if r.Observe(v) != nil {
		t.Fatal("fired while holding")
	}
	v.Tick() // forwards; seq now 2, not holding
	if r.Observe(v) != nil {
		t.Fatal("fired on first silent tick after seq change")
	}
	// Two more silent ticks: timer = 3 reached? Observe counts from the
	// tick after the seq settled.
	if r.Observe(v) != nil {
		t.Fatal("fired one tick early")
	}
	if r.Observe(v) != nil {
		t.Fatal("fired one tick early (2)")
	}
	tok := r.Observe(v)
	if tok == nil {
		t.Fatal("never fired")
	}
	// Jump by n = 4 over seq 2.
	if tok.Seq != 6 {
		t.Errorf("regenerated seq = %d, want 6", tok.Seq)
	}
	if r.Regenerations != 1 {
		t.Errorf("Regenerations = %d", r.Regenerations)
	}
	if !strings.Contains(r.String(), "δ=3") {
		t.Errorf("String = %q", r.String())
	}
}

func TestRegeneratorDeltaClamped(t *testing.T) {
	if NewRegenerator(0).Delta != 1 {
		t.Error("delta not clamped")
	}
}

func TestFaultFreeCirculation(t *testing.T) {
	for name, factory := range map[string]func(int, int) Node{
		"eager": eagerFactory(2),
		"lazy":  lazyFactory(3, 1),
	} {
		s := NewSim(SimConfig{N: 5, Seed: 1, NewNode: factory})
		s.Run(500)
		m := s.Metrics()
		for i, acc := range m.Accepts {
			if acc == 0 {
				t.Errorf("%s: process %d never received the token", name, i)
			}
		}
		if m.Discards != 0 {
			t.Errorf("%s: %d discards in a fault-free run", name, m.Discards)
		}
		if m.DeadTicks != 0 {
			t.Errorf("%s: ring dead for %d ticks without faults", name, m.DeadTicks)
		}
		if live := s.LiveTokens(); live != 1 {
			t.Errorf("%s: %d live tokens, want exactly 1", name, live)
		}
	}
}

// The headline: token loss kills an unwrapped ring permanently; the
// graybox regenerator revives it — on BOTH implementations, unchanged.
func TestTokenLossDeadlockAndRecovery(t *testing.T) {
	for name, factory := range map[string]func(int, int) Node{
		"eager": eagerFactory(2),
		"lazy":  lazyFactory(3, 1),
	} {
		// Unwrapped: drop everything at t=50 → dead forever.
		bare := NewSim(SimConfig{N: 4, Seed: 2, NewNode: factory})
		bare.Run(50)
		bare.DropAllInFlight()
		bare.StealToken()
		before := totalAccepts(bare.Metrics())
		bare.Run(500)
		if totalAccepts(bare.Metrics()) != before {
			t.Errorf("%s: unwrapped ring made progress after token loss", name)
		}
		if bare.LiveTokens() != 0 {
			t.Errorf("%s: live tokens after loss = %d", name, bare.LiveTokens())
		}

		// Wrapped: same fault, regeneration brings it back.
		wrapped := NewSim(SimConfig{N: 4, Seed: 2, NewNode: factory, WrapperDelta: 20})
		wrapped.Run(50)
		wrapped.DropAllInFlight()
		wrapped.StealToken()
		before = totalAccepts(wrapped.Metrics())
		wrapped.Run(500)
		if totalAccepts(wrapped.Metrics()) <= before {
			t.Errorf("%s: wrapped ring made no progress after token loss", name)
		}
		if wrapped.Metrics().Regenerations == 0 {
			t.Errorf("%s: wrapper never regenerated", name)
		}
		if live := wrapped.LiveTokens(); live != 1 {
			t.Errorf("%s: live tokens after recovery = %d, want 1", name, live)
		}
	}
}

// Duplicated tokens die at the first process that has seen newer: the ring
// converges back to exactly one live token, with discards recorded.
func TestDuplicationConvergesToSingleToken(t *testing.T) {
	s := NewSim(SimConfig{N: 5, Seed: 3, NewNode: eagerFactory(1)})
	s.Run(50)
	s.DuplicateInFlight()
	s.Run(500)
	if live := s.LiveTokens(); live != 1 {
		t.Fatalf("live tokens = %d, want 1", live)
	}
}

// Forged multi-holders: Accept Spec + forwarding dedup converge back to a
// single token (the stale branches die at their next hop).
func TestForgedHoldersConverge(t *testing.T) {
	s := NewSim(SimConfig{N: 6, Seed: 4, NewNode: eagerFactory(1), WrapperDelta: 30})
	s.Run(50)
	s.ForgeHolders(3)
	s.Run(1000)
	if live := s.LiveTokens(); live != 1 {
		t.Fatalf("live tokens = %d, want 1", live)
	}
	if s.Holder() == -1 && s.LiveTokens() != 1 {
		t.Error("no unique holder or in-flight token after convergence")
	}
}

// A corrupted too-high seq blockades the ring at one process; regeneration
// sequence numbers grow past it and circulation resumes.
func TestSeqBlockadeEventuallyOutrun(t *testing.T) {
	s := NewSim(SimConfig{N: 4, Seed: 5, NewNode: eagerFactory(1), WrapperDelta: 10})
	s.Run(30)
	s.CorruptSeq(2, s.Node(2).Seq()+40) // well ahead of current tokens
	before := s.Metrics().Accepts[3]    // process past the blockade
	s.Run(2000)
	if s.Metrics().Accepts[3] <= before {
		t.Fatal("ring never got past the seq blockade")
	}
	if s.LiveTokens() != 1 {
		t.Errorf("live tokens = %d, want 1", s.LiveTokens())
	}
}

func totalAccepts(m *Metrics) int {
	total := 0
	for _, a := range m.Accepts {
		total += a
	}
	return total
}

func TestSimPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config accepted")
		}
	}()
	NewSim(SimConfig{N: 1})
}

func TestSimDeterminism(t *testing.T) {
	run := func() (int, int) {
		s := NewSim(SimConfig{N: 5, Seed: 9, NewNode: eagerFactory(2), WrapperDelta: 25})
		s.Run(100)
		s.DropAllInFlight()
		s.StealToken()
		s.Run(1000)
		return totalAccepts(s.Metrics()), s.Metrics().Regenerations
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", a1, r1, a2, r2)
	}
}

// TestTickAllocatesNothing: one simulator tick of a circulating ring
// (token deliveries, node forwarding, the regenerator's look, dead-token
// accounting) allocates nothing, with and without observability.
func TestTickAllocatesNothing(t *testing.T) {
	for _, o := range []*obs.Obs{nil, obs.New(obs.Options{TraceCapacity: 64})} {
		s := NewSim(SimConfig{N: 5, Seed: 3, NewNode: eagerFactory(2), WrapperDelta: 25, Obs: o})
		s.Run(20)
		before := totalAccepts(s.Metrics())
		allocs := testing.AllocsPerRun(100, s.Tick)
		if allocs != 0 {
			t.Errorf("obs=%v: a tick allocates %.2f times, want 0", o != nil, allocs)
		}
		if totalAccepts(s.Metrics()) == before {
			t.Fatalf("obs=%v: the token did not circulate over 101 ticks", o != nil)
		}
	}
}

// Property: Accept Spec keeps seq_i monotone under arbitrary token streams.
func TestSeqMonotoneProperty(t *testing.T) {
	f := func(seqs []uint64) bool {
		e := NewEager(0, 3, 1)
		l := NewLazy(1, 3, 2, 1)
		var prevE, prevL uint64
		for _, s := range seqs {
			e.Accept(Token{Seq: s % 100})
			l.Accept(Token{Seq: s % 100})
			if e.Seq() < prevE || l.Seq() < prevL {
				return false
			}
			prevE, prevL = e.Seq(), l.Seq()
			// Drain holds so later accepts are possible.
			for e.Holding() {
				e.Tick()
			}
			for l.Holding() {
				l.Tick()
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the forwarded token always carries a seq strictly above the
// accepted one (the per-hop increment that makes dedup sound).
func TestForwardIncrementsProperty(t *testing.T) {
	f := func(start uint64, holdRaw uint8) bool {
		hold := 1 + int(holdRaw%5)
		e := NewEager(0, 4, hold)
		seq := start%1000 + 1
		if !e.Accept(Token{Seq: seq}) {
			return seq <= 0
		}
		for i := 0; i < hold-1; i++ {
			if e.Tick() != nil {
				return false
			}
		}
		tok := e.Tick()
		return tok != nil && tok.Seq == seq+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
