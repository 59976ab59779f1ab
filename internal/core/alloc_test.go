package core

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/crhkit/crh/internal/data"

	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The columnar solver's allocation contract: every buffer an iteration
// touches is allocated during setup, so once the loop is running,
// additional iterations allocate nothing. The pin measures whole runs at
// two iteration budgets — any per-iteration allocation would make the
// longer run's total strictly larger.

// iterAllocDelta returns the allocations one extra solver iteration
// costs under cfg: the difference between a long and a short run,
// normalized per added iteration. Tol is forced to -Inf so neither run
// converges early and the iteration counts are exact.
func iterAllocDelta(t *testing.T, p *Prepared, cfg Config, short, long int) float64 {
	t.Helper()
	runAllocs := func(iters int) float64 {
		c := cfg
		c.MaxIters = iters
		c.Tol = math.Inf(-1)
		c.Workers = 1
		// 20 samples: AllocsPerRun floors its average, so small sample
		// counts can turn setup-allocation jitter into a spurious ±1.
		return testing.AllocsPerRun(20, func() {
			res, err := p.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", res.Iterations, iters)
			}
		})
	}
	return (runAllocs(long) - runAllocs(short)) / float64(long-short)
}

// TestSolverIterationAllocFree pins zero steady-state allocations per
// solver iteration for the default configuration (absolute/0-1 losses,
// exp-max weights) on mixed data: the kernel interfaces and the
// solver-owned scratch must keep the whole weight/truth/objective cycle
// off the heap.
func TestSolverIterationAllocFree(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 42)
	p := Prepare(d)
	if delta := iterAllocDelta(t, p, Config{}, 4, 24); delta != 0 {
		t.Fatalf("default config allocates %.2f objects per iteration, want 0", delta)
	}
}

// TestSolverIterationAllocFreeProbabilistic pins the same contract on
// the probabilistic categorical path (squared-prob distributions in the
// per-entry arena) with the exp-sum scheme.
func TestSolverIterationAllocFreeProbabilistic(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 43)
	p := Prepare(d)
	cfg := Config{
		ContinuousLoss:  loss.NormalizedSquared{},
		CategoricalLoss: loss.SquaredProb{},
		Scheme:          reg.ExpSum{},
	}
	if delta := iterAllocDelta(t, p, cfg, 4, 24); delta != 0 {
		t.Fatalf("squared-prob config allocates %.2f objects per iteration, want 0", delta)
	}
}

// TestSolverRunReusesPrepared pins the flip side: a whole Run on a
// Prepared must stay within a fixed allocation budget that does not
// scale with the dataset's claim count — the freeze, not the run, owns
// the data-sized buffers. The budget is generous (setup still allocates
// weights, partials, scratch) but catches any per-entry allocation
// sneaking back into the iteration loop.
func TestSolverRunReusesPrepared(t *testing.T) {
	small := Prepare(synthesize(equivCase{"mixed", 2, 2, 8, 100, 0.2}, 44))
	big := Prepare(synthesize(equivCase{"mixed", 2, 2, 8, 1600, 0.2}, 44))
	cfg := Config{MaxIters: 6, Tol: math.Inf(-1), Workers: 1}
	measure := func(p *Prepared) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(big)
	// 16× the entries must not mean 16× the allocations: allow the dist
	// table header and truth table growth, nothing per-claim.
	if b > a*4 {
		t.Fatalf("run allocations scale with dataset size: %0.f (small) vs %.0f (16x entries)", a, b)
	}
}

// countingAbsolute is a test-only continuous loss without kernel methods
// (it reaches the solver through loss.AsContinuousKernel) that counts
// its Deviation calls: the number of claim-level loss evaluations.
type countingAbsolute struct{ n *atomic.Int64 }

func (countingAbsolute) Name() string { return "test-counting-absolute" }

func (countingAbsolute) Truth(vals, ws []float64) float64 {
	return loss.NormalizedAbsolute{}.Truth(vals, ws)
}

func (c countingAbsolute) Deviation(truth, obs, std float64) float64 {
	c.n.Add(1)
	return loss.NormalizedAbsolute{}.Deviation(truth, obs, std)
}

// TestSolverLossPassCount pins the fused iteration: a solve makes one
// loss pass over the claims to start — folded into the uniform-weight
// truth update, or on its own over InitTruths — and one per iteration,
// folded into that iteration's truth update. The objective and the next
// weight update reuse those losses instead of recomputing them.
func TestSolverLossPassCount(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 10, 200, 0.25}, 45)
	var claims int64
	for e := 0; e < d.NumEntries(); e++ {
		if d.Prop(d.EntryProp(e)).Type == data.Continuous {
			claims += int64(d.EntryObservers(e))
		}
	}
	p := Prepare(d)
	for _, w := range []int{1, 4} {
		for _, start := range []struct {
			name string
			init *data.Table
		}{{"default", nil}, {"init-truths", lastObserverTruths(d)}} {
			var n atomic.Int64
			res, err := p.Run(Config{
				ContinuousLoss: countingAbsolute{&n},
				InitTruths:     start.init,
				MaxIters:       5,
				Tol:            math.Inf(-1),
				Workers:        w,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(res.Iterations+1) * claims; n.Load() != want {
				t.Errorf("workers=%d %s start: %d deviations over %d iterations, want %d ((iterations+1) x %d claims)",
					w, start.name, n.Load(), res.Iterations, want, claims)
			}
		}
		var n atomic.Int64
		p.IncrementalPass(make([]float64, d.NumSources()), Config{ContinuousLoss: countingAbsolute{&n}, Workers: w})
		if n.Load() != claims {
			t.Errorf("workers=%d IncrementalPass: %d deviations, want %d (one pass)", w, n.Load(), claims)
		}
	}
}
