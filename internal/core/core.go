// Package core implements the CRH (Conflict Resolution on Heterogeneous
// data) framework — Algorithm 1 of the paper. Given a multi-source dataset
// with mixed continuous/categorical properties and missing values, it
// jointly estimates a truth table and per-source reliability weights by
// block coordinate descent on
//
//	min_{X*,W}  Σ_k w_k Σ_i Σ_m d_m(v*_im, v^k_im)   s.t. δ(W) = 1,
//
// alternating a source-weight update (Step I, solved by a reg.Scheme) with
// a per-entry truth update (Step II, solved by the loss functions' argmin
// rules) until the objective stabilizes.
//
// The solver's hot loops run on a frozen columnar view of the dataset
// (internal/col) built once per run — or once per Prepared when the same
// dataset is solved repeatedly — so steady-state iterations perform no
// allocations and touch only flat, contiguous slices.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/obs"
	"github.com/crhkit/crh/internal/reg"
)

// Config controls a CRH run. The zero value selects the paper's defaults:
// weighted-median truths for continuous properties (normalized absolute
// loss), weighted voting for categorical properties (0-1 loss), and the
// max-normalized negative-log weight assignment.
type Config struct {
	// ContinuousLoss aggregates and penalizes continuous observations.
	// Defaults to loss.NormalizedAbsolute (weighted median).
	ContinuousLoss loss.Continuous
	// CategoricalLoss aggregates and penalizes categorical observations.
	// Defaults to loss.ZeroOne (weighted voting).
	CategoricalLoss loss.Categorical
	// Scheme assigns source weights from aggregated losses. Defaults to
	// reg.ExpMax.
	Scheme reg.Scheme

	// MaxIters bounds the number of weight/truth iterations. Defaults
	// to 20; the paper observes convergence within a few iterations.
	MaxIters int
	// Workers is the per-run worker budget for the truth and loss
	// computations, which are embarrassingly parallel across entries.
	// 0 selects GOMAXPROCS; 1 forces sequential execution. Output is
	// bit-for-bit identical for every Workers setting: work is split
	// into shards whose boundaries depend only on the dataset, and
	// per-shard partial sums are reduced in fixed shard order, so
	// floating-point summation order never depends on the worker count
	// or scheduling. See docs/PARALLEL.md for the contract.
	Workers int
	// Pool optionally supplies a reusable worker pool shared across
	// runs (see NewPool). Concurrent Run calls may share one pool; the
	// pool size then bounds total solver concurrency while Workers
	// bounds each run's share of it. Nil spawns transient goroutines
	// per run.
	Pool *Pool
	// Tol is the relative objective-decrease threshold for convergence.
	// Defaults to 1e-6.
	Tol float64

	// NormalizeProps rescales each property's per-source average
	// deviations by the property's maximum so heterogeneous loss scales
	// contribute comparably to the weights (Section 2.5,
	// "Normalization"). Defaults to on; set DisablePropNormalization to
	// turn it off.
	DisablePropNormalization bool
	// DisableCountNormalization stops dividing each source's loss by its
	// observation count (Section 2.5, "Missing values"). Defaults to on.
	DisableCountNormalization bool

	// InitTruths seeds the truth table instead of the default
	// uniform-weight aggregation (voting / median).
	InitTruths *data.Table

	// KnownTruths pins entries whose true value is already known
	// (semi-supervised operation): pinned entries are never re-estimated
	// but do contribute to source-weight estimation, so a little
	// supervision sharpens every source's reliability.
	KnownTruths *data.Table

	// ComputeConfidence fills Result.Confidence with a per-entry score
	// in [0, 1]: the weighted fraction of sources that support the
	// chosen truth (categorical: sources voting for it; continuous:
	// sources within one entry-spread of it). Off by default — it costs
	// one extra pass over the observations.
	ComputeConfidence bool

	// Trace receives per-iteration telemetry (objective, per-phase wall
	// time, weight summary, truth-change count) from the
	// block-coordinate-descent loop. Nil — the default — disables
	// instrumentation entirely: the loop computes none of the
	// trace-only quantities, so the hot path stays allocation-free.
	// obs.NewJSONLTrace provides a ready-made JSONL sink.
	Trace obs.SolverTrace

	// PropertyGroups relaxes the source-weight consistency assumption
	// (Section 2.5, "Source weight consistency"): instead of one weight
	// per source, each source gets one weight per group of properties,
	// capturing local reliability (a sensor accurate on temperature but
	// not humidity). Each element lists the property indices of one
	// group; every property must appear in exactly one group. Nil keeps
	// the paper's default of a single global weight per source.
	PropertyGroups [][]int
}

// WithDefaults returns c with the zero-value defaults filled in and its
// losses and scheme in the one shape every Algorithm 1 step calls: after
// it, ContinuousLoss holds a loss.ContinuousKernel, CategoricalLoss a
// loss.CategoricalKernel and Scheme a reg.Kernel. A loss or scheme
// without that shape is wrapped here, once, by its package's adapter.
// Applying WithDefaults again changes nothing.
func WithDefaults(c Config) Config {
	if c.ContinuousLoss == nil {
		c.ContinuousLoss = loss.NormalizedAbsolute{}
	}
	if c.CategoricalLoss == nil {
		c.CategoricalLoss = loss.ZeroOne{}
	}
	if c.Scheme == nil {
		c.Scheme = reg.ExpMax{}
	}
	c.ContinuousLoss = loss.AsContinuousKernel(c.ContinuousLoss)
	c.CategoricalLoss = loss.AsCategoricalKernel(c.CategoricalLoss)
	c.Scheme = reg.AsKernel(c.Scheme)
	if c.MaxIters == 0 {
		c.MaxIters = 20
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	return c
}

// Result is the output of a CRH run.
type Result struct {
	// Truths holds the inferred value for every entry with at least one
	// observation.
	Truths *data.Table
	// Weights holds one reliability weight per source (the first
	// group's weights when PropertyGroups is set).
	Weights []float64
	// GroupWeights holds the per-group weights when Config.PropertyGroups
	// is set: GroupWeights[g][k] is source k's reliability on group g.
	// Nil for the default single-group configuration.
	GroupWeights [][]float64
	// Objective records the objective value after each iteration's truth
	// update: index 0 is iteration 1's. The initialization pass records
	// none.
	Objective []float64
	// IterTime records each iteration's wall time (weight update, the
	// truth update with its fused loss fold, and objective evaluation
	// together), aligned with Objective. The initialization pass is not
	// included. Always populated — convergence-versus-cost analyses need
	// it whether or not a Trace is installed.
	IterTime []time.Duration
	// Iterations is the number of weight/truth iterations executed.
	Iterations int
	// Converged reports whether the tolerance was met before MaxIters.
	Converged bool
	// Confidence holds one score per entry when
	// Config.ComputeConfidence is set (0 for unresolved entries):
	// the weighted support for the chosen truth.
	Confidence []float64
}

// ErrEmptyDataset is returned when the dataset has no sources or entries.
var ErrEmptyDataset = errors.New("core: empty dataset")

// validateGroups checks that PropertyGroups is a partition of the
// property indices.
func validateGroups(groups [][]int, numProps int) error {
	seen := make([]bool, numProps)
	for gi, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("core: property group %d is empty", gi)
		}
		for _, m := range g {
			if m < 0 || m >= numProps {
				return fmt.Errorf("core: property group %d references property %d of %d", gi, m, numProps)
			}
			if seen[m] {
				return fmt.Errorf("core: property %d appears in multiple groups", m)
			}
			seen[m] = true
		}
	}
	for m, ok := range seen {
		if !ok {
			return fmt.Errorf("core: property %d missing from PropertyGroups", m)
		}
	}
	return nil
}

// Run executes CRH on d. It is deterministic for a given dataset and
// configuration, and its output is bit-for-bit identical for every
// Workers setting (see Config.Workers and docs/PARALLEL.md).
//
// Run freezes the dataset's columnar view first; callers solving the
// same dataset repeatedly should Prepare once and call Prepared.Run.
func Run(d *data.Dataset, cfg Config) (*Result, error) {
	if d.NumSources() == 0 || d.NumEntries() == 0 {
		return nil, ErrEmptyDataset
	}
	return Prepare(d).Run(cfg)
}

// LossMatrix is Step I's input: each source's summed deviations and
// observation counts per property, flattened [k*M+m]. The solver fills
// it from its per-shard partials and the MapReduce driver from its
// weight job's output; Combine turns it into per-source losses for both.
type LossMatrix struct {
	K, M int
	Sum  []float64
	Cnt  []int32
	avg  []float64
}

// NewLossMatrix returns a zeroed matrix for K sources and M properties.
func NewLossMatrix(K, M int) *LossMatrix {
	return &LossMatrix{K: K, M: M, Sum: make([]float64, K*M), Cnt: make([]int32, K*M), avg: make([]float64, K*M)}
}

// Combine collapses the matrix over the property subset props into one
// loss per source, written to dst (length K), applying Section 2.5's
// normalizations as cfg enables them: each (source, property) sum is
// divided by its observation count, each property is rescaled by its
// largest source average, and each source's losses are averaged over
// the properties it observed. counts, when non-nil, receives each
// source's observation count over props.
func (lm *LossMatrix) Combine(dst []float64, counts []int, props []int, cfg *Config) {
	K, M, P := lm.K, lm.M, len(props)
	avg := lm.avg[:K*P]
	for k := 0; k < K; k++ {
		for j, m := range props {
			a := 0.0
			if cnt := lm.Cnt[k*M+m]; cnt > 0 {
				if cfg.DisableCountNormalization {
					a = lm.Sum[k*M+m]
				} else {
					a = lm.Sum[k*M+m] / float64(cnt)
				}
			}
			avg[k*P+j] = a
		}
	}
	if !cfg.DisablePropNormalization {
		for j := 0; j < P; j++ {
			var max float64
			for k := 0; k < K; k++ {
				if avg[k*P+j] > max {
					max = avg[k*P+j]
				}
			}
			if max > 0 {
				for k := 0; k < K; k++ {
					avg[k*P+j] /= max
				}
			}
		}
	}
	for k := 0; k < K; k++ {
		var total float64
		var nprops, nobs int
		for j, m := range props {
			if cnt := lm.Cnt[k*M+m]; cnt > 0 {
				total += avg[k*P+j]
				nprops++
				nobs += int(cnt)
			}
		}
		if nprops > 0 && !cfg.DisableCountNormalization {
			total /= float64(nprops)
		}
		dst[k] = total
		if counts != nil {
			counts[k] = nobs
		}
	}
}
