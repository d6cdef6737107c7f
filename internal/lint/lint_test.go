package lint

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureModule is the fake module path the testdata packages live under;
// suffix matching makes DefaultConfig's layer scopes apply to them.
const fixtureModule = "example.com/fix"

// fixtures maps fixture import paths to their testdata directories.
var fixtures = map[string]string{
	fixtureModule + "/internal/wrapper": "testdata/layering",
	fixtureModule + "/internal/sim":     "testdata/det",
	fixtureModule + "/internal/kinds":   "testdata/kinds",
}

// want is one expected diagnostic, declared in a fixture file as a
// trailing comment: // want:<pass> "substring of the message"
type want struct {
	file   string
	line   int
	pass   string
	substr string
}

var wantRE = regexp.MustCompile(`want:(\w+)\s+"([^"]*)"`)

func collectWants(t *testing.T, dirs ...string) []want {
	t.Helper()
	var wants []want
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
					wants = append(wants, want{
						file: filepath.ToSlash(path), line: line,
						pass: m[1], substr: m[2],
					})
				}
			}
			f.Close()
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments under %v", dirs)
	}
	return wants
}

// lintFixtures loads every fixture package and returns the findings.
func lintFixtures(t *testing.T, cfg *Config, exports map[string]string) []Diagnostic {
	t.Helper()
	paths := make([]string, 0, len(fixtures))
	for p := range fixtures {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	r := NewRunner(cfg, fset)
	for _, p := range paths {
		pkg, err := LoadDir(fset, fixtures[p], p, exports)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		r.Lint(pkg)
	}
	return r.Finish()
}

func fixtureConfig() *Config {
	cfg := DefaultConfig()
	cfg.Module = fixtureModule
	return cfg
}

// TestFixtures runs all three passes over the fixture packages with full
// type information and checks the findings against the want comments:
// every seeded violation is caught, every //gblint:ignore twin and every
// legitimate construct stays quiet.
func TestFixtures(t *testing.T) {
	exports, err := Exports(".", "time", "math/rand", "fmt")
	if err != nil {
		t.Fatalf("building export data: %v", err)
	}
	diags := lintFixtures(t, fixtureConfig(), exports)

	dirs := make([]string, 0, len(fixtures))
	for _, d := range fixtures {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	wants := collectWants(t, dirs...)

	matched := make([]bool, len(wants))
diags:
	for _, d := range diags {
		file := filepath.ToSlash(d.Pos.Filename)
		for i, w := range wants {
			if !matched[i] && file == w.file && d.Pos.Line == w.line &&
				d.Pass == w.pass && strings.Contains(d.Msg, w.substr) {
				matched[i] = true
				continue diags
			}
		}
		t.Errorf("unexpected finding: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding: %s:%d [%s] containing %q", w.file, w.line, w.pass, w.substr)
		}
	}
}

// TestSyntacticDegradation reruns the fixtures with no export data at
// all. Intra-package and universe types still resolve (the checker
// type-checks source directly), imported types degrade to the syntactic
// fallbacks (the file import table), and the checks that genuinely need
// missing type info — like MapOpaque's range — skip instead of guessing,
// so the findings must come out identical to the fully typed run.
func TestSyntacticDegradation(t *testing.T) {
	exports, err := Exports(".", "time", "math/rand", "fmt")
	if err != nil {
		t.Fatalf("building export data: %v", err)
	}
	asStrings := func(ds []Diagnostic) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.String()
		}
		return out
	}
	full := asStrings(lintFixtures(t, fixtureConfig(), exports))
	bare := asStrings(lintFixtures(t, fixtureConfig(), nil))
	if strings.Join(full, "\n") != strings.Join(bare, "\n") {
		t.Errorf("findings differ without export data:\nfull:\n%s\nbare:\n%s",
			strings.Join(full, "\n"), strings.Join(bare, "\n"))
	}
}

// TestPassSelection checks Config.Passes subsets the runner. A malformed
// ignore directive is reported whichever passes run.
func TestPassSelection(t *testing.T) {
	cfg := fixtureConfig()
	cfg.Passes = []string{PassLayering}
	for _, d := range lintFixtures(t, cfg, nil) {
		if d.Pass != PassLayering && d.Pass != "ignore" {
			t.Errorf("pass %q ran despite selection: %s", d.Pass, d)
		}
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"internal/sim", "example.com/mod/internal/sim", true},
		{"internal/sim", "internal/sim", true},
		{"internal/sim", "example.com/mod/internal/simx", false},
		{"internal/sim", "example.com/mod/xinternal/sim", false},
		{"internal/sim", "example.com/mod/internal/sim/sub", false},
		{"internal/sim/...", "example.com/mod/internal/sim/sub", true},
		{"internal/sim/...", "example.com/mod/internal/sim", true},
		{"internal/sim/...", "example.com/mod/internal/simx", false},
	}
	for _, c := range cases {
		if got := matchPath(c.pattern, c.path); got != c.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

func TestDirective(t *testing.T) {
	cases := []struct {
		comment, name string
		rest          string
		ok            bool
	}{
		{"//gblint:ignore determinism reason", "ignore", "determinism reason", true},
		{"//gblint:ignore", "ignore", "", true},
		{"// gblint:ignore x", "ignore", "x", true},
		{"//gblint:ignorefoo", "ignore", "", false},
		{"//gblint:kindset", "kindset", "", true},
		{"// some other comment", "ignore", "", false},
	}
	for _, c := range cases {
		rest, ok := directive(c.comment, c.name)
		if rest != c.rest || ok != c.ok {
			t.Errorf("directive(%q, %q) = (%q, %v), want (%q, %v)",
				c.comment, c.name, rest, ok, c.rest, c.ok)
		}
	}
}

// TestRepoIsClean is gblint's self-check: the analyzer (and the whole
// repository, including internal/lint and cmd/gblint themselves) must lint
// clean with the shipped rule table.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	diags, err := Run("../..", []string{"./..."}, DefaultConfig())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}
