// Command gblint is the repository's graybox-aware static analyzer. It
// enforces the conventions no test reaches: the graybox layering rule
// (wrappers and specs never import protocol internals), the simulator's
// determinism contract, and exhaustive dispatch over //gblint:kindset const
// blocks. See internal/lint for the passes and DESIGN.md "Static
// guarantees" for the architecture they encode and the audit that decided
// which checks are a lint pass and which a test (allocations, locking,
// goroutine lifetimes and nil-receiver instruments are tests).
//
// Usage:
//
//	gblint [-pass layering,determinism,exhaustive] [-json] [packages]
//
// Packages default to ./... and use the go tool's pattern syntax. The
// exit status is 1 when any finding is reported. -json renders the
// findings as a JSON array on stdout (an empty array on a clean tree), the
// machine-readable form CI archives as an artifact. Suppress a finding
// with a //gblint:ignore <pass> comment on, or directly above, its line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/graybox-stabilization/graybox/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("gblint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	passes := fs.String("pass", "", "comma-separated pass subset (default: all of layering,determinism,exhaustive)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout (empty array when clean)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := lint.DefaultConfig()
	if *passes != "" {
		cfg.Passes = strings.Split(*passes, ",")
	}
	diags, err := lint.Run(".", fs.Args(), cfg)
	if err != nil {
		fmt.Fprintln(errOut, "gblint:", err)
		return 2
	}
	wd, _ := os.Getwd()
	for i := range diags {
		if wd != "" {
			if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Pos.Filename = rel
			}
		}
	}
	if *jsonOut {
		if err := writeJSON(out, diags); err != nil {
			fmt.Fprintln(errOut, "gblint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) == 0 {
		return 0
	}
	fmt.Fprintf(errOut, "gblint: %d finding(s)\n", len(diags))
	return 1
}

// jsonFinding is the machine-readable rendering of one diagnostic.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"`
	Msg  string `json:"msg"`
}

// writeJSON renders the findings as an indented JSON array — always an
// array (an empty one on a clean tree), so consumers need no null check.
func writeJSON(out io.Writer, diags []lint.Diagnostic) error {
	fs := make([]jsonFinding, len(diags))
	for i, d := range diags {
		fs[i] = jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Pass: d.Pass, Msg: d.Msg,
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}
