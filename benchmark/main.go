// Command benchmark is the repository's benchmark of record: one
// critical-section entry on a wrapped cluster, measured end to end on the
// live TCP path and on the simulator, and layer by layer in a traced run.
// README.md in this directory is the glossary.
//
//	go run ./benchmark                                  all five workloads, end to end
//	go run ./benchmark --trace 1 --trace-out spans.json the per-layer metrics, spans written out
//	go run ./benchmark --workload live-saturated --seed 2 --seconds 12 --trace 0
//	go run ./benchmark --out a.json                     append the results to a set
//	go run ./benchmark --agree a.json b.json            compare two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// run is main without the process: it returns the exit code. Code 1 with a
// nil error means a workload ran and failed its own correctness check, or
// two result sets disagreed.
func run(args []string, out, errOut io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(errOut)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 12, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with --trace 1: file the spans are written to at exit")
	outPath := fs.String("out", "", "result-set file to append each result to, one JSON object a line")
	agree := fs.Bool("agree", false, "compare the two result-set files named as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag package already said why
	}
	if *agree {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("--agree takes two result-set files")
		}
		return agreeFiles(out, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		return 2, fmt.Errorf("want --seconds > 0, --trace 0 or 1, and no other arguments")
	}
	names := Workloads
	if *workload != "all" {
		if _, ok := workloadWhy[*workload]; !ok {
			return 2, fmt.Errorf("no workload %q; have %v", *workload, Workloads)
		}
		names = []string{*workload}
	}

	code := 0
	spans := map[string][]Span{}
	for _, name := range names {
		r := &Result{Workload: name, Seed: *seed, Trace: *trace, Correct: true, Metrics: map[string]Metric{}}
		if err := runWorkload(r, *seconds, spans); err != nil {
			return 1, fmt.Errorf("%s: %w", name, err)
		}
		printResult(errOut, r)
		if *outPath != "" {
			if err := appendResult(*outPath, r); err != nil {
				return 1, err
			}
		}
		if err := contractLine(out, r); err != nil {
			return 1, err
		}
		if !r.Correct {
			code = 1
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// runWorkload measures one workload in the mode r.Trace names.
func runWorkload(r *Result, seconds float64, spans map[string][]Span) error {
	if r.Trace == 1 {
		s, err := layerOutcome(r, seconds)
		spans[r.Workload] = s
		return err
	}
	if isLive(r.Workload) {
		setup, segs, err := runLive(r.Workload, r.Seed, seconds)
		if err != nil {
			return err
		}
		liveOutcome(r, r.Workload, setup, segs)
		return nil
	}
	setup, reps := runSim(r.Workload, r.Seed, seconds)
	simOutcome(r, setup, reps)
	return nil
}

// printResult is the table a person reads: every metric by name with its
// unit and, for timings, the number of samples under it.
func printResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d correct=%v ops_attempted=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// contractLine prints the one JSON object a driver reads from the last
// line of standard output: exactly correct, attempted, failed and metrics,
// each metric exactly value and unit.
func contractLine(w io.Writer, r *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendResult adds r to the result set at path, one JSON object a line.
func appendResult(path string, r *Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
