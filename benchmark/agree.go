package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadSet reads a result set: one Result a line, as --out appends them.
func loadSet(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		set = append(set, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}

// quartiles are the three cut points statistics.quantiles(vs, n=4) gives
// in Python (the exclusive method), so that a spread computed here is the
// spread a driver computes from the same values. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		// The rank is clamped to the data and the weight taken afterwards,
		// so the outer cut points of a short sample extrapolate, as Python's do.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values, which have no spread to show.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the second set's values with the first's under a
// metric's bound: regressed when the second median is worse than the first
// by more than the bound, unresolved when either set's own spread is wider
// than the bound (the sets cannot tell a change that size from noise).
// setup_s is held to its medians only, as the driver holds it: set-up is
// short, so its spread is wide, and the bound is there to catch work moved
// into it.
func judge(m MetricSpec, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound):
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	default:
		return worse, verdictOK
	}
}

// agreeFiles prints, for every workload and end-to-end metric both sets
// hold, both medians, each set's spread and the verdict, then every
// per-layer metric both hold side by side (layers carry no bound and get no
// verdict). It returns 1 when any verdict is not ok.
func agreeFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return 2, err
	}
	values := func(set []Result, workload string, trace int, metric string) []float64 {
		var vs []float64
		for _, r := range set {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tspread a\tspread b\tworse by\tbound\tverdict")
	code, rows := 0, 0
	for _, workload := range Workloads {
		for _, m := range EndToEnd {
			va, vb := values(a, workload, 0, m.Name), values(b, workload, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, verdict := judge(m, va, vb)
			if verdict != verdictOK {
				code = 1
			}
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.2f%%\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
				workload, m.Name, m.Unit, median(va), median(vb), spread(va)*100, spread(vb)*100, worse*100, m.Bound*100, verdict)
		}
		for _, m := range PerLayer {
			va, vb := values(a, workload, 1, m.Name), values(b, workload, 1, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.2f%%\t%.2f%%\t\t\tlayer\n",
				workload, m.Name, m.Unit, median(va), median(vb), spread(va)*100, spread(vb)*100)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2, err
	}
	if rows == 0 {
		return 2, fmt.Errorf("%s and %s share no workload and mode", pathA, pathB)
	}
	return code, nil
}
