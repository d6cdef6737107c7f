package graybox

import "fmt"

// Product returns the asynchronous (interleaving) product of local systems:
// the formal meaning of the paper's (▯ i :: S_i) for a distributed system
// whose process i has local state space Σ_i. A product state is a tuple of
// component states (encoded in mixed radix, component 0 least significant);
// each transition changes exactly one component according to that
// component's local relation. Initial states are the tuples of component
// initial states.
//
// Local everywhere specifications are exactly the systems expressible as
// such products (§2.1): Lemma 2 — componentwise everywhere implementation
// implies everywhere implementation of the products — is a theorem about
// this construction, property-tested in product_test.go.
//
// The product has Π|Σ_i| states; callers keep components small (it exists
// for formal checking, not for simulation — internal/sim plays that role).
func Product(name string, parts ...*System) (*System, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("graybox: product of no systems")
	}
	total := 1
	for _, p := range parts {
		if p.NumStates() <= 0 {
			return nil, fmt.Errorf("graybox: product component %q has no states", p.Name())
		}
		if total > 1<<20/p.NumStates() {
			return nil, fmt.Errorf("graybox: product exceeds 2^20 states")
		}
		total *= p.NumStates()
	}
	enc := NewTupleCodec(parts)
	b := NewBuilder(name, total)

	tuple := make([]int, len(parts))
	for s := 0; s < total; s++ {
		enc.Decode(s, tuple)
		for i, p := range parts {
			orig := tuple[i]
			for _, v := range p.Successors(orig) {
				tuple[i] = v
				b.AddTransition(s, enc.Encode(tuple))
			}
			tuple[i] = orig
		}
	}

	// Initial states: the cartesian product of component inits.
	inits := []int{0}
	mult := 1
	for _, p := range parts {
		var next []int
		for _, base := range inits {
			for _, u := range p.Init() {
				next = append(next, base+u*mult)
			}
		}
		inits = next
		mult *= p.NumStates()
	}
	b.SetInit(inits...)
	return b.Build()
}

// TupleCodec translates between product states and component-state tuples
// for a fixed component list (mixed-radix encoding, component 0 least
// significant).
type TupleCodec struct {
	sizes []int
}

// NewTupleCodec returns the codec for the given components.
func NewTupleCodec(parts []*System) *TupleCodec {
	sizes := make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = p.NumStates()
	}
	return &TupleCodec{sizes: sizes}
}

// Encode maps a component-state tuple to the product state.
func (c *TupleCodec) Encode(tuple []int) int {
	s, mult := 0, 1
	for i, v := range tuple {
		s += v * mult
		mult *= c.sizes[i]
	}
	return s
}

// Decode fills tuple with the component states of product state s.
func (c *TupleCodec) Decode(s int, tuple []int) {
	for i, size := range c.sizes {
		tuple[i] = s % size
		s /= size
	}
}
