// Package tokenring implements Dijkstra's K-state self-stabilizing token
// ring — the canonical *whitebox* stabilization design from the tradition
// the paper cites ([6–9]) and positions graybox design against.
//
// Dijkstra's protocol needs complete implementation knowledge: its
// correctness argument is a global invariant over the concrete x-values of
// every machine. The repository includes it as the baseline of experiment
// E10: both approaches stabilize mutual exclusion, but the token ring's
// stabilization is welded to one implementation, while the graybox wrapper
// (internal/wrapper) stabilizes every implementation of Lspec.
//
// # Protocol
//
// n machines in a ring hold counters x[i] ∈ {0..K-1}. The bottom machine 0
// is privileged when x[0] = x[n-1] and moves by x[0] := x[0]+1 mod K; every
// other machine i is privileged when x[i] ≠ x[i-1] and moves by
// x[i] := x[i-1]. Holding a privilege is holding the token (the right to
// enter the critical section). For K ≥ n the protocol is self-stabilizing
// under a central daemon: from any state it converges to the legitimate
// states, where exactly one machine is privileged, and then the privilege
// circulates forever.
package tokenring

import "fmt"

// Rand is the random source the ring's daemon and corruption draw from.
// *math/rand.Rand satisfies it, as do the engine's derived seeded streams
// (engine.Core.Stream), which the engine-backed Sim in this package uses so
// that E10 runs are reproducible from a single Config.Seed.
type Rand interface {
	Intn(n int) int
}

// Ring is one K-state token ring instance. Construct with New.
type Ring struct {
	n, k int
	x    []int
}

// New returns a ring of n ≥ 2 machines with K = k states each, initialized
// to the all-zero (legitimate) state. It panics on invalid sizes
// (programming error, not runtime input).
func New(n, k int) *Ring {
	if n < 2 || k < 2 {
		panic("tokenring: need n ≥ 2 machines and K ≥ 2 states")
	}
	return &Ring{n: n, k: k, x: make([]int, n)}
}

// SetX overwrites machine i's counter (state-corruption faults and improper
// initialization). Values are reduced mod K so the state stays type-correct.
func (r *Ring) SetX(i, v int) {
	v %= r.k
	if v < 0 {
		v += r.k
	}
	r.x[i] = v
}

// Privileged reports whether machine i currently holds a privilege (the
// token).
func (r *Ring) Privileged(i int) bool {
	if i == 0 {
		return r.x[0] == r.x[r.n-1]
	}
	return r.x[i] != r.x[i-1]
}

// pickPrivileged is the central daemon's choice: a privileged machine
// chosen uniformly by one rng.Intn(count) draw, the same draw as indexing
// the ascending privileged set with rng.Intn(len), without building the
// set. At least one machine is always privileged (if all x equal, machine 0
// is).
func (r *Ring) pickPrivileged(rng Rand) int {
	count := 0
	for i := 0; i < r.n; i++ {
		if r.Privileged(i) {
			count++
		}
	}
	k := rng.Intn(count)
	for i := 0; ; i++ {
		if r.Privileged(i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
}

// Legitimate reports whether exactly one machine is privileged — the
// system's invariant, equivalent to mutual exclusion on the token.
func (r *Ring) Legitimate() bool {
	count := 0
	for i := 0; i < r.n; i++ {
		if r.Privileged(i) {
			count++
			if count > 1 {
				return false
			}
		}
	}
	return count == 1
}

// Step fires machine i's move if it is privileged, returning whether a move
// was made. Firing consumes the privilege (and passes the token onward).
func (r *Ring) Step(i int) bool {
	if !r.Privileged(i) {
		return false
	}
	if i == 0 {
		r.x[0] = (r.x[0] + 1) % r.k
	} else {
		r.x[i] = r.x[i-1]
	}
	return true
}

// Corrupt assigns arbitrary counters to every machine (transient state
// corruption of the whole ring), drawn from rng.
func (r *Ring) Corrupt(rng Rand) {
	for i := range r.x {
		r.x[i] = rng.Intn(r.k)
	}
}

// String renders the counters, marking privileged machines with '*'.
func (r *Ring) String() string {
	out := make([]byte, 0, 4*r.n)
	for i, v := range r.x {
		if i > 0 {
			out = append(out, ' ')
		}
		out = fmt.Appendf(out, "%d", v)
		if r.Privileged(i) {
			out = append(out, '*')
		}
	}
	return string(out)
}
