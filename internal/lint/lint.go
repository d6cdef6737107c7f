// Package lint is gblint's analysis engine: a stdlib-only static analyzer
// (go/ast, go/parser, go/types) that makes the repo's graybox and
// determinism conventions hold by construction instead of by code review.
// Three passes run over every package:
//
//   - layering: an import-DAG check encoding the graybox rule — wrappers
//     and specs are designed from local everywhere specifications, never
//     from protocol internals, so internal/wrapper and internal/lspec
//     must not import the protocol implementations, protocols must not
//     import the wrapper or simulator layers, and internal/obs stays a
//     leaf. The rules live in a declarative table (Config.Layering).
//
//   - determinism: in the simulator, harness, and protocol packages —
//     whose output must be a pure function of configuration and seed —
//     flags wall-clock reads (time.Now), the global math/rand source,
//     map iteration that feeds ordered output, and goroutine spawns
//     outside the sanctioned ParMap.
//
//   - exhaustive: switches dispatching over a declared kind set (a const
//     block marked //gblint:kindset <name>) must cover every member or
//     carry a default that fails loudly, so a newly added kind can never
//     silently fall through.
//
// Lock discipline, goroutine lifetimes and the observability instruments'
// nil-receiver contract are held by tests instead: `go test -race`, the
// goroutine-count checks, and obs.TestNilReceiversAreNoOps.
//
// Findings are suppressed line-by-line with //gblint:ignore <passes>; see
// collectIgnores for the exact grammar.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Pass names, used in -pass selections, want comments, and ignore
// directives.
const (
	PassLayering    = "layering"
	PassDeterminism = "determinism"
	PassExhaustive  = "exhaustive"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Msg)
}

// LayerRule constrains the imports of the packages matching Scope.
// Patterns match an import path exactly or as a path-boundary suffix, so
// "internal/sim" matches "example.com/mod/internal/sim"; a trailing "/..."
// matches the whole subtree. The special deny pattern DenyModule rejects
// every in-module import, expressing "this package is a leaf".
type LayerRule struct {
	Scope  string
	Deny   []string
	Reason string
}

// DenyModule, as a LayerRule deny pattern, matches every import inside
// Config.Module.
const DenyModule = "MODULE"

// Config is the declarative rule table the passes interpret. New packages
// slot into the architecture by editing DefaultConfig, not the passes.
type Config struct {
	// Module is the module path; imports with this prefix are in-module.
	Module string
	// Passes selects which passes run (nil = all three).
	Passes []string

	// Layering is the import-DAG rule table.
	Layering []LayerRule

	// DetScope lists the package patterns under the determinism contract.
	DetScope []string
	// DetGoAllowed names functions in which `go` statements are
	// sanctioned (the harness's ParMap).
	DetGoAllowed []string
	// DetTimeFuncs are the time-package functions that read the wall
	// clock or wait on it.
	DetTimeFuncs []string
	// DetRandAllowed are the math/rand and math/rand/v2 members that do
	// not touch the global source (seeded constructors).
	DetRandAllowed []string
	// OrderedSinks are method names whose calls inside a map-range body
	// mark the iteration as feeding ordered output.
	OrderedSinks []string
}

// DefaultConfig returns the graybox repository's rule table.
func DefaultConfig() *Config {
	protocols := []string{
		"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
	}
	specSide := "wrappers and specs are designed from local everywhere specifications, never from protocol internals (the graybox rule)"
	implSide := "protocol implementations must stay runnable without the wrapper/simulator layers"
	return &Config{
		Module: "github.com/graybox-stabilization/graybox",
		Layering: []LayerRule{
			{Scope: "internal/wrapper", Deny: protocols, Reason: specSide},
			{Scope: "internal/lspec", Deny: protocols, Reason: specSide},
			{Scope: "internal/hme", Deny: append([]string{
				"internal/wrapper", "internal/sim", "internal/runtime", "internal/harness",
			}, protocols...), Reason: "the hierarchical wrapper-of-wrappers sees per-shard spec views only: no protocol internals (graybox rule) and no substrates (they drive it, never the reverse)"},
			{Scope: "internal/ra", Deny: []string{"internal/wrapper", "internal/sim"}, Reason: implSide},
			{Scope: "internal/lamport", Deny: []string{"internal/wrapper", "internal/sim"}, Reason: implSide},
			{Scope: "internal/tokenring", Deny: []string{"internal/wrapper", "internal/sim"}, Reason: implSide},
			{Scope: "internal/ring", Deny: []string{"internal/wrapper", "internal/sim"}, Reason: implSide},
			{Scope: "internal/obs", Deny: []string{DenyModule},
				Reason: "obs is a leaf every layer publishes into, so it may depend on nothing in-module"},
			{Scope: "internal/seeded", Deny: []string{DenyModule},
				Reason: "seeded is the one stream constructor every layer draws from, so it may depend on nothing in-module"},
			{Scope: "internal/wallclock", Deny: []string{DenyModule},
				Reason: "wallclock is the one clock seam the live path reads and waits on, so it may depend on nothing in-module"},
			{Scope: "internal/engine", Deny: []string{
				"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
				"internal/wrapper", "internal/lspec",
				"internal/sim", "internal/fault", "internal/harness",
			}, Reason: "the event engine is protocol-agnostic: substrates build on it, never the reverse"},
			{Scope: "internal/wire", Deny: []string{
				"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
				"internal/wrapper", "internal/lspec",
				"internal/sim", "internal/runtime", "internal/harness",
			}, Reason: "the wire layer moves opaque TME frames: it may build on engine/fault/obs but never on protocols, wrappers, specs, or its own consumers"},
			{Scope: "internal/workload", Deny: []string{
				"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
				"internal/wrapper", "internal/lspec",
				"internal/sim", "internal/runtime", "internal/harness",
				"internal/fault", "internal/wire", "internal/scenario", "internal/channel",
			}, Reason: "workload owns the seeded draw streams and the one client (Driver) that consumes them, both substrate-blind: engine/obs/tme at most, so every substrate replays the same schedule under the same client decisions"},
			{Scope: "internal/scenario", Deny: []string{
				"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
				"internal/wrapper", "internal/lspec",
				"internal/sim", "internal/runtime", "internal/harness",
			}, Reason: "scenarios compile onto workload/fault/wire/engine/obs primitives; they must not reach into substrates or protocols (the harness adapts, never the reverse)"},
			{Scope: "internal/twin", Deny: []string{
				"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
				"internal/wrapper", "internal/lspec", "internal/tme",
				"internal/sim", "internal/runtime", "internal/harness", "internal/hme",
				"internal/fault", "internal/wire", "internal/scenario", "internal/channel",
				"internal/engine", "internal/ltime",
			}, Reason: "the analytical twin is closed-form arithmetic over published parameters: workload specs in, predictions out — the moment it imports a substrate or protocol it stops being an independent prediction and starts being a second simulator"},
		},
		DetScope: []string{
			"internal/sim", "internal/runtime", "internal/harness",
			"internal/fault", "internal/channel", "internal/lspec",
			"internal/ra", "internal/lamport", "internal/tokenring", "internal/ring",
			"internal/engine", "internal/wire",
			"internal/workload", "internal/scenario", "internal/hme",
			"internal/seeded", "internal/wallclock",
		},
		// ParMap is the harness's deterministic parallel sweep: it joins
		// before any result is observed, so the spawned goroutines cannot
		// order-race.
		DetGoAllowed: []string{"ParMap"},
		DetTimeFuncs: []string{
			"Now", "Since", "Until",
			"Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick",
		},
		DetRandAllowed: []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"},
		OrderedSinks: []string{
			"Emit", "Observe", "AddRow", "Write", "WriteString",
			"Fprintf", "Fprint", "Fprintln", "Printf", "Print", "Println",
		},
	}
}

// matchPath reports whether path matches pattern: exact match, a
// path-boundary suffix, or a "/..."-subtree.
func matchPath(pattern, path string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return matchPath(sub, path) || strings.Contains(path, "/"+sub+"/") ||
			strings.HasPrefix(path, sub+"/")
	}
	return pattern == path || strings.HasSuffix(path, "/"+pattern)
}

func matchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPath(p, path) {
			return true
		}
	}
	return false
}

// inModule reports whether path is inside module.
func inModule(path, module string) bool {
	return module != "" && (path == module || strings.HasPrefix(path, module+"/"))
}

// Pass checks one loaded package at a time, reporting findings through
// report. Passes needing cross-package state implement Finisher as well.
type Pass interface {
	Name() string
	Check(cfg *Config, pkg *Package, report Reporter)
}

// Finisher is an optional Pass extension that fires after every package
// was checked (for whole-program properties such as a kind set declared in
// one package and switched over in another).
type Finisher interface {
	Finish(cfg *Config, report Reporter)
}

// Reporter records one finding at pos.
type Reporter func(pos token.Pos, format string, args ...any)

// Runner drives the passes over a package stream and owns suppression and
// ordering of the combined findings.
type Runner struct {
	cfg    *Config
	fset   *token.FileSet
	passes []Pass
	diags  []Diagnostic
	// ignores maps file -> line -> pass names suppressed there.
	ignores map[string]map[int][]string
}

// NewRunner returns a runner over cfg with the selected passes (all three
// when cfg.Passes is nil). All linted packages must share fset.
func NewRunner(cfg *Config, fset *token.FileSet) *Runner {
	all := []Pass{
		layeringPass{},
		determinismPass{},
		newExhaustivePass(),
	}
	r := &Runner{cfg: cfg, fset: fset, ignores: map[string]map[int][]string{}}
	for _, p := range all {
		if cfg.Passes == nil || containsStr(cfg.Passes, p.Name()) {
			r.passes = append(r.passes, p)
		}
	}
	return r
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// reporter returns a Reporter that files findings under pass.
func (r *Runner) reporter(pass string) Reporter {
	return func(pos token.Pos, format string, args ...any) {
		r.diags = append(r.diags, Diagnostic{
			Pos:  r.fset.Position(pos),
			Pass: pass,
			Msg:  fmt.Sprintf(format, args...),
		})
	}
}

// Lint runs every selected pass over pkg.
func (r *Runner) Lint(pkg *Package) {
	r.collectIgnores(pkg)
	for _, p := range r.passes {
		p.Check(r.cfg, pkg, r.reporter(p.Name()))
	}
}

// Finish runs the cross-package finishers and returns the suppressed,
// sorted findings.
func (r *Runner) Finish() []Diagnostic {
	for _, p := range r.passes {
		if f, ok := p.(Finisher); ok {
			f.Finish(r.cfg, r.reporter(p.Name()))
		}
	}
	out := r.diags[:0]
	for _, d := range r.diags {
		if !r.suppressed(d) {
			out = append(out, d)
		}
	}
	r.diags = out
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return r.diags
}

// collectIgnores indexes every //gblint:ignore directive of pkg by file
// and line. A directive suppresses findings on its own line and on the
// line directly below it, so both trailing and preceding placements work:
//
//	t := time.Now() //gblint:ignore determinism wall-clock is fine here
//
//	//gblint:ignore determinism,exhaustive reason...
//	t := time.Now()
//
// The pass list is required and every name in it must be a known pass. A
// bare directive, or one naming an unknown pass (a typo, a deleted pass),
// suppresses nothing and is reported as a finding of its own, so a
// misspelling can never switch checks off.
func (r *Runner) collectIgnores(pkg *Package) {
	report := r.reporter("ignore")
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := directive(c.Text, "ignore")
				if !ok {
					continue
				}
				passes := strings.Split(firstToken(rest), ",")
				if bad, ok := unknownPass(passes); ok {
					report(c.Pos(), "//gblint:ignore needs a list of known passes (%s, %s, %s) before its reason; %q is none, so this directive suppresses nothing",
						PassLayering, PassDeterminism, PassExhaustive, bad)
					continue
				}
				pos := r.fset.Position(c.Pos())
				m := r.ignores[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					r.ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], passes...)
			}
		}
	}
}

// unknownPass returns the first name in passes that is not a pass.
func unknownPass(passes []string) (string, bool) {
	for _, p := range passes {
		switch p {
		case PassLayering, PassDeterminism, PassExhaustive:
		default:
			return p, true
		}
	}
	return "", false
}

func (r *Runner) suppressed(d Diagnostic) bool {
	m := r.ignores[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if containsStr(m[line], d.Pass) {
			return true
		}
	}
	return false
}

// directive parses a "//gblint:<name> rest" comment, returning the rest.
func directive(comment, name string) (string, bool) {
	s := strings.TrimPrefix(comment, "//")
	s = strings.TrimSpace(s)
	rest, ok := strings.CutPrefix(s, "gblint:"+name)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. gblint:ignorefoo
	}
	return strings.TrimSpace(rest), true
}

// firstToken returns the first whitespace-delimited token of s.
func firstToken(s string) string {
	if fields := strings.Fields(s); len(fields) > 0 {
		return fields[0]
	}
	return ""
}
