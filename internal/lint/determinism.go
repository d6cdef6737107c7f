package lint

import (
	"go/ast"
	"go/types"
)

// determinismPass enforces the simulation determinism contract on the
// packages in Config.DetScope: every run must be a pure function of its
// configuration and seed, because the parity tests and the benchmark
// regression gate compare runs byte-for-byte. It flags
//
//   - wall-clock reads and waits (time.Now, time.Sleep, time.NewTimer and
//     friends, per Config.DetTimeFuncs);
//   - the global math/rand source (package-level rand.Intn etc.) and
//     math/rand/v2's top-level draws (rand.IntN, rand.N, rand.Uint64, ...),
//     which read a source no seed reaches; seeded streams (seeded.New, or
//     rand.New over rand.NewPCG) are the sanctioned form;
//   - `range` over a map whose body feeds ordered output — appends,
//     channel sends, or calls to emitting sinks (Config.OrderedSinks) —
//     since map iteration order would leak into the event stream;
//   - goroutine spawns outside the functions named in Config.DetGoAllowed
//     (the harness's ParMap, whose merge order is deterministic).
//
// Map detection needs type information; without it that sub-check is
// skipped (never false-positives).
type determinismPass struct{}

func (determinismPass) Name() string { return PassDeterminism }

// clockReads are the DetTimeFuncs that read the clock; the rest wait on it.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// randTypeNames are math/rand and math/rand/v2 type names, never
// flaggable (they carry no state); needed only when type information is
// unavailable.
var randTypeNames = map[string]bool{
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func (determinismPass) Check(cfg *Config, pkg *Package, report Reporter) {
	if !matchAny(cfg.DetScope, pkg.Path) {
		return
	}
	for _, f := range pkg.Files {
		imports := fileImports(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			goAllowed := containsStr(cfg.DetGoAllowed, fd.Name.Name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !goAllowed {
						report(n.Pos(), "goroutine spawned outside the sanctioned %v: in-scope packages schedule work through the deterministic event loop or ParMap", cfg.DetGoAllowed)
					}
				case *ast.CallExpr:
					checkDetCall(cfg, pkg, imports, n, report)
				case *ast.RangeStmt:
					checkMapRange(cfg, pkg, n, report)
				}
				return true
			})
		}
	}
}

// checkDetCall flags wall-clock and global-rand calls. An explicitly
// instantiated generic (rand.N[int64](n)) is judged by its function.
func checkDetCall(cfg *Config, pkg *Package, imports map[string]string, call *ast.CallExpr, report Reporter) {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	path, ok := selectorPackage(pkg, imports, sel)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch path {
	case "time":
		switch {
		case !containsStr(cfg.DetTimeFuncs, name):
		case clockReads[name]:
			report(call.Pos(), "time.%s reads the wall clock: simulated time must come from the event loop so runs are a pure function of seed", name)
		default:
			report(call.Pos(), "time.%s waits on the wall clock: a simulated wait is an event on the event loop, and a live one is an internal/wallclock Timer", name)
		}
	case "math/rand", "math/rand/v2":
		if containsStr(cfg.DetRandAllowed, name) {
			return
		}
		if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
			if _, isType := obj.(*types.TypeName); isType {
				return
			}
		} else if randTypeNames[name] {
			return
		}
		src := "the global math/rand source"
		if path == "math/rand/v2" {
			src = "math/rand/v2's unseedable global source"
		}
		report(call.Pos(), "rand.%s draws from %s: use a seeded stream (seeded.New(seed), a PCG held by value)", name, src)
	}
}

// checkMapRange flags map iteration whose body emits into ordered output.
func checkMapRange(cfg *Config, pkg *Package, r *ast.RangeStmt, report Reporter) {
	tv, ok := pkg.Info.Types[r.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(r.Pos(), "map iteration sends on a channel: map order is nondeterministic, so the receive order differs between runs")
			return false
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				report(r.Pos(), "map iteration appends to a slice: map order is nondeterministic, so the slice order differs between runs (collect keys, sort, then iterate)")
				return false
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && containsStr(cfg.OrderedSinks, sel.Sel.Name) {
				report(r.Pos(), "map iteration calls %s, an ordered-output sink: map order is nondeterministic (collect keys, sort, then iterate)", sel.Sel.Name)
				return false
			}
		}
		return true
	})
}

// fileImports maps the local import names of f to import paths.
func fileImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path := imp.Path.Value
		path = path[1 : len(path)-1]
		name := path
		if i := lastSlash(path); i >= 0 {
			name = path[i+1:]
			// A major-version suffix is not the package name: "math/rand/v2"
			// is imported as rand.
			if j := lastSlash(path[:i]); isMajorVersion(name) && i > 0 {
				name = path[j+1 : i]
			}
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// isMajorVersion reports whether elem is a module major-version path
// element: v2, v3, ...
func isMajorVersion(elem string) bool {
	if len(elem) < 2 || elem[0] != 'v' || elem[1] == '0' {
		return false
	}
	for _, c := range elem[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// selectorPackage resolves sel.X to an imported package path, via type
// info when available and the file's import table otherwise. The second
// result is false when sel.X is not a package name (a field or variable).
func selectorPackage(pkg *Package, imports map[string]string, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj := pkg.Info.Uses[id]; obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "", false
		}
		return pn.Imported().Path(), true
	}
	path, ok := imports[id.Name]
	return path, ok
}
