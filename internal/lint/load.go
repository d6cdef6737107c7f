package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, and (best-effort) type-checked package.
type Package struct {
	// Path is the import path.
	Path string
	// Fset positions every file (shared across the run).
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info hold the type-checker's results. Type-checking is
	// best-effort: when an import cannot be resolved the maps are still
	// populated for everything that resolved, and passes degrade to
	// their syntactic subset. Info maps are always non-nil.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints, informational only.
	TypeErrors []error
}

func loadFiles(fset *token.FileSet, importPath string, fileNames []string, exports map[string]string) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: fset}
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("no Go files for %s", importPath)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: newExportImporter(fset, exports),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error; the
	// errors are already collected above.
	pkg.Types, _ = conf.Check(importPath, fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// exportImporter resolves imports from compiler export data located via a
// path -> file map (produced by `go list -export`). Missing entries error,
// which the type-checker surfaces as a collected (non-fatal) problem.
type exportImporter struct {
	gc      types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	imp := &exportImporter{exports: exports}
	imp.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := imp.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return imp
}

func (imp *exportImporter) Import(path string) (*types.Package, error) {
	if _, ok := imp.exports[path]; !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return imp.gc.Import(path)
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Exports builds the export-data map for the given packages and their
// whole dependency closure by shelling out to `go list -export`. The go
// tool compiles (from its build cache) whatever is stale, so the map is
// complete for any package that builds.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// Run lints the packages matched by patterns (relative to dir) with cfg
// and returns the findings. It walks packages via `go list -json`,
// type-checks against `go list -export` export data, and applies
// //gblint:ignore suppressions.
func Run(dir string, patterns []string, cfg *Config) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// Export data for type-checking is best-effort: a tree that does not
	// fully compile still gets the syntactic passes.
	exports, expErr := Exports(dir, patterns...)
	fset := token.NewFileSet()
	runner := NewRunner(cfg, fset)
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, 0, len(t.GoFiles))
		for _, g := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, g))
		}
		pkg, err := loadFiles(fset, t.ImportPath, files, exports)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", t.ImportPath, err)
		}
		runner.Lint(pkg)
	}
	diags := runner.Finish()
	if len(diags) == 0 && expErr != nil {
		// Surface the compile failure rather than claiming a clean tree.
		return nil, expErr
	}
	return diags, nil
}
