package core

import (
	"math"
	"time"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/stats"
)

// Prepared is a dataset readied for solving: the per-entry statistics
// every run needs but no run mutates. The solver reads the claims
// straight from the dataset's entry-major index, so preparing costs one
// pass over the continuous claims and copies none. Once built, a
// Prepared is immutable and safe for any number of concurrent Run /
// IncrementalPass calls. Callers that solve the same dataset repeatedly
// — the resolve server's snapshots, benchmark sweeps — should Prepare
// once and reuse it; the package-level Run prepares on every call.
type Prepared struct {
	d *data.Dataset
	// props caches the property descriptors in index order so hot loops
	// resolve them without re-deriving from the dataset.
	props []*data.Property
	// entryStd caches each continuous entry's observation spread for
	// loss normalization (Eq 13/15). Zero for categorical entries.
	entryStd []float64
}

// Prepare computes d's per-entry spreads. The dataset must not be
// mutated afterwards (datasets built by data.Builder are immutable
// already).
func Prepare(d *data.Dataset) *Prepared {
	p := &Prepared{
		d:        d,
		props:    make([]*data.Property, d.NumProps()),
		entryStd: make([]float64, d.NumEntries()),
	}
	for m := range p.props {
		p.props[m] = d.Prop(m)
	}
	for e := range p.entryStd {
		// Claims are in source-ascending order, the order the spreads
		// have always been summed in, so they stay bit-identical.
		if p.props[d.EntryProp(e)].Type == data.Continuous {
			p.entryStd[e] = stats.Std(d.EntryFloats(e))
		}
	}
	return p
}

// Dataset returns the dataset this Prepared was built from.
func (p *Prepared) Dataset() *data.Dataset { return p.d }

// Run executes CRH over the prepared dataset. See the package-level Run
// for the semantics; this variant skips the per-call Prepare.
func (p *Prepared) Run(cfg Config) (*Result, error) {
	if p.d.NumSources() == 0 || p.d.NumEntries() == 0 {
		return nil, ErrEmptyDataset
	}
	cfg = WithDefaults(cfg)
	if cfg.PropertyGroups != nil {
		if err := validateGroups(cfg.PropertyGroups, p.d.NumProps()); err != nil {
			return nil, err
		}
	}
	s := newSolver(p, cfg)

	// Initialization: either the caller's truths or one truth update
	// under uniform weights — the Voting/Averaging start the paper
	// recommends (Section 2.5, "Initialization"). Either way the pass
	// leaves the first weight update's losses behind.
	if cfg.InitTruths != nil {
		s.truths = cfg.InitTruths.Clone()
		s.pinKnown()
		s.pass(false, false)
	} else {
		s.setUniformWeights()
		s.pass(true, false)
	}

	// The per-iteration appends stay within these capacities, so the
	// iteration loop itself performs no allocations.
	res := &Result{
		Objective: make([]float64, 0, cfg.MaxIters),
		IterTime:  make([]time.Duration, 0, cfg.MaxIters),
	}
	tracing := cfg.Trace != nil
	prevObj := math.Inf(1)
	for it := 0; it < cfg.MaxIters; it++ {
		t0 := time.Now()
		s.updateWeights()
		tW := time.Now()
		changes := s.pass(true, tracing)
		tT := time.Now()
		obj := s.objective()
		tO := time.Now()
		res.Objective = append(res.Objective, obj)
		res.IterTime = append(res.IterTime, tO.Sub(t0))
		res.Iterations = it + 1
		if !math.IsInf(prevObj, 1) {
			denom := math.Abs(prevObj)
			if denom < 1e-12 {
				denom = 1e-12
			}
			if (prevObj-obj)/denom < cfg.Tol {
				res.Converged = true
			}
		}
		prevObj = obj
		if tracing {
			cfg.Trace.TraceIteration(obs.IterationTrace{
				Iteration:      it + 1,
				Objective:      obj,
				WeightPhase:    tW.Sub(t0),
				TruthPhase:     tT.Sub(tW),
				ObjectivePhase: tO.Sub(tT),
				TruthChanges:   changes,
				WeightWorkers:  1,
				TruthWorkers:   s.lastWorkers,
				Weights:        obs.SummarizeWeights(s.weights[0]),
				Converged:      res.Converged,
			})
		}
		if res.Converged {
			break
		}
	}
	res.Truths = s.truths
	res.Weights = s.weights[0]
	if cfg.PropertyGroups != nil {
		res.GroupWeights = s.weights
	}
	if cfg.ComputeConfidence {
		res.Confidence = s.confidence()
	}
	return res, nil
}

// IncrementalPass is one chunk of Incremental CRH (Algorithm 2, lines
// 3-4) as one solver pass: a truth update (Step II) under the fixed
// source weights that folds each source's Step I loss against those
// truths. The losses are computed exactly as in a Run iteration — the
// distributions of a probabilistic loss are the ones the truth update
// just produced, and KnownTruths-pinned entries have none — and are
// normalized but not turned into weights: the caller folds them into its
// own accumulated distances. PropertyGroups is ignored; there is one
// weight per source.
func (p *Prepared) IncrementalPass(weights []float64, cfg Config) (*data.Table, []float64) {
	cfg = WithDefaults(cfg)
	cfg.PropertyGroups = nil
	s := newSolver(p, cfg)
	copy(s.weights[0], weights)
	s.pass(true, false)
	return s.truths, s.groupLosses[0]
}
