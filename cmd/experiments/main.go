// Command experiments regenerates every experiment table of EXPERIMENTS.md
// (the reproduction of the paper's Figure 1 and of its behavioural claims
// E2–E18).
//
// Usage:
//
//	experiments [-scale quick|full] [-markdown] [-only E4] [-json results.json] [-check]
//
// -check exits non-zero when an experiment that judges its own claim (every
// one but E15 and E16, whose rows run on the wall clock) finds it broken.
//
// -json additionally writes a machine-readable document keyed by experiment
// ID: per experiment, the number of runs and the merged obs metrics
// snapshot of every run (counters summed, gauges as high-water marks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "sweep scale: quick or full")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	csvOut := fs.Bool("csv", false, "emit CSV (one table after another, titles as comments)")
	only := fs.String("only", "", "run a single experiment (E1..E18)")
	jsonPath := fs.String("json", "", `write per-experiment merged obs snapshots as JSON to this file ("-" = stdout)`)
	check := fs.Bool("check", false, "exit non-zero, naming them, when experiments that judge their own claim (all but E15 and E16) find it broken")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale harness.Scale
	switch *scaleName {
	case "quick":
		scale = harness.Quick
	case "full":
		scale = harness.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}

	exps := harness.Experiments
	if *only != "" {
		exps = nil
		for _, e := range harness.Experiments {
			if e.ID == strings.ToUpper(*only) {
				exps = []harness.Experiment{e}
			}
		}
		if exps == nil {
			return fmt.Errorf("no experiment matches %q", *only)
		}
	}
	var failed []string
	results := make(map[string]*expResult, len(exps))
	for _, e := range exps {
		var agg *expResult
		if *jsonPath != "" {
			agg = &expResult{Metrics: obs.NewSnapshot()}
			harness.SetRunHook(func(_ harness.RunConfig, r harness.RunResult) {
				agg.Runs++
				agg.Metrics.Merge(r.Obs)
			})
		}
		t, ok := e.Run(scale)
		if !ok {
			failed = append(failed, e.ID)
		}
		if *jsonPath != "" {
			harness.SetRunHook(nil)
			results[e.ID] = agg
		}
		switch {
		case *csvOut:
			fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
		case *markdown:
			fmt.Fprintln(out, t.Markdown())
		default:
			fmt.Fprintln(out, t.String())
		}
	}
	if *jsonPath != "" {
		if err := writeResults(*jsonPath, out, results); err != nil {
			return err
		}
	}
	if *check && len(failed) > 0 {
		return fmt.Errorf("%s failed its claim (see the verdict notes above)", strings.Join(failed, ", "))
	}
	return nil
}

// expResult is one experiment's entry in the -json document.
type expResult struct {
	// Runs counts the harness runs behind the experiment's table.
	Runs int `json:"runs"`
	// Metrics is the merged obs snapshot of those runs.
	Metrics *obs.Snapshot `json:"metrics"`
}

// writeResults marshals the per-experiment results (map keys sort, so the
// document is deterministic for a given scale).
func writeResults(path string, out io.Writer, results map[string]*expResult) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = out.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
