package harness

import (
	"fmt"
	"math"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/twin"
	"github.com/graybox-stabilization/graybox/internal/workload"
)

// The twin's acceptance contract: convergence ticks and
// messages-per-entry predicted within 25% of sim measurements across an
// n×δ×load grid. Entries carry the same bound; W' resend volume is the
// model's stated loose metric and gets a factor-2 band instead.
//
// The band has a floor, and its counting rule is this: a cell where the
// sim fired W' fewer than twinMinFires = 16 times, summed over the cell's
// seeds, agrees when the twin also predicts a silent wrapper, under
// twinSilent msgs/entry. The rule counts firings, not only cells that
// fired never. W' is armed per request, so where δ sits above nearly every
// wait the sim fires only on the tail of the wait, and in some cells not
// at all. A rate counted from c firings carries a 95% Poisson interval of
// about c ± 2√c, which is wider than the ×2 band until c reaches 16; such
// a count cannot hold the twin to ×2. One cell needs the rule and not a
// zero: n=8 δ=50 heavy, where the sim fires 3 times (0.0005 msgs/entry)
// against the twin's 0.012.
const (
	twinTol        = 0.25
	twinWrapperTol = 2.0
	twinSilent     = 0.05
	twinMinFires   = 16
)

// twinCell is one grid point of the validation sweep.
type twinCell struct {
	n                int
	delta            int64
	load             string
	tmin, tmax, hold int64
}

func twinGrid() []twinCell {
	var grid []twinCell
	for _, n := range []int{3, 5, 8} {
		for _, delta := range []int64{10, 25, 50} {
			for _, load := range []struct {
				name             string
				tmin, tmax, hold int64
			}{
				{"heavy", 5, 20, 3},  // the sim's default client, near saturation at n≥5
				{"light", 30, 60, 3}, // think-dominated, sub-saturation everywhere
			} {
				grid = append(grid, twinCell{n, delta, load.name, load.tmin, load.tmax, load.hold})
			}
		}
	}
	return grid
}

// TestTwinValidationGrid is the model-vs-measurement gate: every cell of
// the n×δ×load grid must see sim throughput and message cost inside the
// stated tolerance of the closed-form prediction.
//
// Each cell pools six seeds. The cell nearest the band, n=5 δ=25 heavy,
// sits at ×1.83 over 20 seeds, and one seed's rate varies by about 16%, so
// a two-seed sample crosses ×2 on the draws alone (it read ×2.14 when the
// streams changed, while the 20-seed rate moved 0.0245 → 0.0246).
func TestTwinValidationGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep; skipped under -short")
	}
	const (
		horizon = 20000
		seeds   = 6
	)
	grid := twinGrid()
	type cellResult struct {
		cell              twinCell
		entries, mpe, wpe float64
		fires             int64
		pred              twin.Prediction
	}
	results := ParMap(len(grid), func(i int) cellResult {
		c := grid[i]
		spec := workload.UniformSpec(c.tmin, c.tmax, c.hold)
		var entries, prog, wrap int
		var fires int64
		for s := 0; s < seeds; s++ {
			r := Run(RunConfig{
				Algo: RA, N: c.n, Seed: int64(s), Delta: c.delta,
				Workload: workload.NewGen(spec, int64(s)+100, c.n),
				Horizon:  horizon, MaxRequests: 1 << 20,
			})
			entries += r.Entries
			prog += r.ProgramMsgs
			wrap += r.WrapperMsgs
			fires += r.Obs.Counter("wrapper_fires_total")
		}
		pred := twin.Predict(twin.SpecParams(twin.Params{
			N: c.n, Delta: c.delta, Horizon: horizon,
		}, spec))
		return cellResult{
			cell:    c,
			entries: float64(entries) / seeds,
			mpe:     float64(prog) / float64(entries),
			wpe:     float64(wrap) / float64(entries),
			fires:   fires,
			pred:    pred,
		}
	})
	for _, r := range results {
		name := fmt.Sprintf("n=%d δ=%d %s", r.cell.n, r.cell.delta, r.cell.load)
		if rel := relErr(r.pred.Entries, r.entries); rel > twinTol {
			t.Errorf("%s: entries sim=%.0f twin=%.0f (%.0f%% > %.0f%%)",
				name, r.entries, r.pred.Entries, 100*rel, 100*twinTol)
		}
		if rel := relErr(r.pred.MsgsPerEntry, r.mpe); rel > twinTol {
			t.Errorf("%s: msgs/entry sim=%.2f twin=%.2f (%.0f%% > %.0f%%)",
				name, r.mpe, r.pred.MsgsPerEntry, 100*rel, 100*twinTol)
		}
		silent := r.fires < twinMinFires && r.pred.WrapperMsgsPerEntry < twinSilent
		if ratio := bandRatio(r.pred.WrapperMsgsPerEntry, r.wpe); !silent && ratio > twinWrapperTol {
			t.Errorf("%s: wrapper msgs/entry sim=%.4f (%d firings) twin=%.4f (×%.2f > ×%.1f)",
				name, r.wpe, r.fires, r.pred.WrapperMsgsPerEntry, ratio, twinWrapperTol)
		}
	}
}

// TestTwinConvergenceGrid validates the §4 deadlock-recovery prediction
// against the measured fault→re-entry latency on the same n×δ grid.
func TestTwinConvergenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep; skipped under -short")
	}
	type cell struct {
		n     int
		delta int64
	}
	var grid []cell
	for _, n := range []int{3, 5, 8} {
		for _, delta := range []int64{10, 25, 50} {
			grid = append(grid, cell{n, delta})
		}
	}
	const seeds = 3
	type convResult struct {
		cell cell
		sim  float64
		pred float64
	}
	results := ParMap(len(grid), func(i int) convResult {
		c := grid[i]
		var lat float64
		for s := 0; s < seeds; s++ {
			r := Run(RunConfig{
				Algo: RA, N: c.n, Seed: int64(s), Delta: c.delta,
				DeadlockFault: true, Horizon: 20000,
			})
			if !r.Converged {
				lat += math.Inf(1)
				continue
			}
			lat += float64(r.FirstEntryAfterFault - r.LastFault)
		}
		pred := twin.Predict(twin.Params{N: c.n, Delta: c.delta, Horizon: 20000})
		return convResult{cell: c, sim: lat / seeds, pred: pred.ConvergenceTicks}
	})
	for _, r := range results {
		if rel := relErr(r.pred, r.sim); rel > twinTol {
			t.Errorf("n=%d δ=%d: convergence sim=%.1f twin=%.1f (%.0f%% > %.0f%%)",
				r.cell.n, r.cell.delta, r.sim, r.pred, 100*rel, 100*twinTol)
		}
	}
}

// relErr is the symmetric relative error |a−b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// bandRatio is the larger-over-smaller ratio, the natural band for a
// quantity that is only order-of-magnitude modeled.
func bandRatio(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		if a == b {
			return 1
		}
		return math.Inf(1)
	}
	return math.Max(a/b, b/a)
}
