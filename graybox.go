// Package graybox is the public API of the graybox-stabilization library:
// a curated facade over the implementation packages under internal/.
//
// The three layers a downstream user touches:
//
//   - The formal framework — finite systems, the implements relations, the
//     box composition, stabilization checking, and wrapper synthesis.
//   - The TME system — the Lspec node implementations (Ricart–Agrawala and
//     Lamport), the graybox wrappers W and W', the deterministic simulator,
//     the fault injector, and the Lspec/TME_Spec monitors.
//   - The measurement harness — configured faulty runs with convergence
//     verdicts.
//
// See the package documentation of the re-exported types for details; the
// runnable programs under examples/ use exactly this surface.
package graybox

import (
	"github.com/graybox-stabilization/graybox/internal/fault"
	gb "github.com/graybox-stabilization/graybox/internal/graybox"
	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/lamport"
	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/ra"
	"github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/synth"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// --- Formal framework (internal/graybox, internal/synth) --------------

type (
	// System is a finite fusion-closed system: a total transition
	// relation over states 0..n-1 plus initial states.
	System = gb.System
	// SystemBuilder accumulates states, transitions, and initial states.
	SystemBuilder = gb.Builder
	// Lasso is a counterexample to stabilization.
	Lasso = gb.Lasso
	// ImplementsResult reports an implements query with counterexample.
	ImplementsResult = gb.ImplementsResult
	// Strategy is a synthesized recovery strategy for a finite spec.
	Strategy = synth.Strategy
)

// NewSystem returns a builder for a system named name over n states.
func NewSystem(name string, n int) *SystemBuilder { return gb.NewBuilder(name, n) }

// Implements decides [C ⇒ A]_init.
func Implements(c, a *System) ImplementsResult { return gb.Implements(c, a) }

// EverywhereImplements decides [C ⇒ A].
func EverywhereImplements(c, a *System) ImplementsResult { return gb.EverywhereImplements(c, a) }

// StabilizingTo decides whether c is stabilizing to a, with a lasso
// counterexample on failure.
func StabilizingTo(c, a *System) (bool, *Lasso) { return gb.StabilizingTo(c, a) }

// Box returns the ▯ composition of two systems.
func Box(c, w *System) (*System, error) { return gb.Box(c, w) }

// Product returns the asynchronous product of local systems.
func Product(name string, parts ...*System) (*System, error) { return gb.Product(name, parts...) }

// Fig1A and Fig1C are the paper's Figure 1 specification and
// implementation.
func Fig1A() *System { return gb.Fig1A() }

// Fig1C is Figure 1's implementation C (not stabilizing to A).
func Fig1C() *System { return gb.Fig1C() }

// Synthesize computes a recovery strategy for spec a over candidate
// transitions (see AllCandidates).
func Synthesize(a *System, candidates [][2]int) (*Strategy, error) {
	return synth.Synthesize(a, candidates)
}

// AllCandidates returns every non-self-loop transition over n states.
func AllCandidates(n int) [][2]int { return synth.AllCandidates(n) }

// --- TME domain (internal/tme, internal/ra, internal/lamport) ---------

type (
	// Timestamp is a totally ordered logical timestamp.
	Timestamp = ltime.Timestamp
	// SpecView is the graybox window into a process: the Lspec variables
	// and nothing else — all a wrapper may read.
	SpecView = tme.SpecView
	// Node is a TME process as driven by an execution substrate.
	Node = tme.Node
	// Message is one TME interprocess message.
	Message = tme.Message
	// Phase is a client phase (Thinking, Hungry, Eating).
	Phase = tme.Phase
	// Corruption describes a transient state-corruption fault.
	Corruption = tme.Corruption
)

// Client phases.
const (
	Thinking = tme.Thinking
	Hungry   = tme.Hungry
	Eating   = tme.Eating
)

// NewRicartAgrawala returns process id of an n-process Ricart–Agrawala
// system (DSN 2001 §5.1).
func NewRicartAgrawala(id, n int) Node { return ra.New(id, n) }

// NewLamport returns process id of an n-process Lamport ME system with the
// paper's everywhere-implementation modifications (§5.2).
func NewLamport(id, n int) Node { return lamport.New(id, n) }

// --- Wrappers (internal/wrapper) ---------------------------------------

type (
	// Level2 is a level-2 dependability wrapper (inter-process repair).
	Level2 = wrapper.Level2
	// Level1 is a level-1 dependability wrapper (intra-process repair).
	Level1 = wrapper.Level1
	// Timed is W': the wrapper behind a timeout δ.
	Timed = wrapper.Timed
	// WrapperFunc adapts a plain wrapper function into a Level2.
	WrapperFunc = wrapper.Func
)

// W evaluates the paper's refined wrapper W_j over a spec view.
func W(v SpecView) []Message { return wrapper.W(v) }

// NewTimedWrapper returns W' with timeout period delta.
func NewTimedWrapper(delta int64) *Timed { return wrapper.NewTimed(delta) }

// --- Execution substrates (internal/sim, internal/runtime) ------------

type (
	// Sim is the deterministic discrete-event simulator.
	Sim = sim.Sim
	// SimConfig parameterizes a simulation.
	SimConfig = sim.Config
	// Cluster runs a TME system on real goroutines and channels.
	Cluster = runtime.Cluster
	// ClusterConfig parameterizes a cluster.
	ClusterConfig = runtime.Config
	// Injector applies the §3.1 fault model to a simulation.
	Injector = fault.Injector
	// FaultMix weights the fault classes within a burst.
	FaultMix = fault.Mix
	// Monitors checks a run against Lspec and TME_Spec.
	Monitors = lspec.Monitors
)

// NewSim constructs a simulator (panics on missing N/NewNode).
func NewSim(cfg SimConfig) *Sim { return sim.New(cfg) }

// NewCluster builds a goroutine cluster; Start it, and always Stop it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return runtime.NewCluster(cfg) }

// NewInjector returns a seeded fault injector.
func NewInjector(seed int64, mix FaultMix) *Injector {
	return fault.NewInjector(seed, mix)
}

// NewMonitors returns Lspec/TME_Spec monitors for an n-process system.
func NewMonitors(n int) *Monitors { return lspec.New(n) }

// --- Measurement harness (internal/harness) ---------------------------

type (
	// RunConfig describes one measured faulty run.
	RunConfig = harness.RunConfig
	// RunResult summarizes it.
	RunResult = harness.RunResult
	// Algo selects a reference implementation.
	Algo = harness.Algo
)

// Reference algorithms and the wrapperless sentinel.
const (
	RicartAgrawala = harness.RA
	Lamport        = harness.Lamport
	NoWrapper      = harness.NoWrapper
)

// Run executes one configured run and returns its measurements.
func Run(cfg RunConfig) RunResult { return harness.Run(cfg) }
