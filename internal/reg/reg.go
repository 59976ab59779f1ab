// Package reg implements the source-weight assignment schemes of Section
// 2.3: given each source's aggregated loss against the current truth
// estimate, a Scheme produces the weight vector solving Step I of the CRH
// block coordinate descent under a particular regularization constraint
// δ(W) = 1.
package reg

import (
	"math"

	"github.com/crhkit/crh/internal/stats"
)

// Scheme maps per-source aggregated losses to source weights. Losses are
// non-negative; implementations must return finite non-negative weights and
// must handle the all-zero and single-source cases.
type Scheme interface {
	// Name identifies the scheme in options and reports.
	Name() string
	// Weights returns one weight per source given each source's total
	// (normalized) loss against the current truths.
	Weights(losses []float64) []float64
}

// Kernel is the one shape of a scheme the solver calls: weights written
// into a caller-owned buffer, with each source's observation count at
// hand. Every built-in scheme implements it; any other Scheme reaches
// the solver through AsKernel.
type Kernel interface {
	Scheme
	// WeightsInto writes one weight per source into dst (length
	// len(losses)). counts[k] is source k's observation count; nil
	// counts means the counts are unknown, and then dst receives
	// exactly Weights(losses).
	WeightsInto(dst, losses []float64, counts []int)
}

// AsKernel returns s in the solver's shape: s itself when it implements
// Kernel, otherwise s behind the adapter, whose WeightsInto copies
// Weights(losses) into dst and ignores the counts.
func AsKernel(s Scheme) Kernel {
	if k, ok := s.(Kernel); ok {
		return k
	}
	return schemeAdapter{s}
}

type schemeAdapter struct{ Scheme }

func (a schemeAdapter) WeightsInto(dst, losses []float64, _ []int) {
	copy(dst, a.Weights(losses))
}

// weights is a built-in scheme's Weights: its WeightsInto a fresh slice,
// without counts.
func weights(k Kernel, losses []float64) []float64 {
	ws := make([]float64, len(losses))
	k.WeightsInto(ws, losses, nil)
	return ws
}

// relFloor guards −log against zero losses: a source whose loss is exactly
// zero (it agrees with every current truth) would otherwise get an infinite
// weight. Losses are floored at a small fraction of the normalizer.
const relFloor = 1e-9

// ExpSum is the entropy-style regularization δ(W) = Σ_k exp(−w_k) of Eq(4),
// whose optimum (Eq 5) weights each source by the negative log of its share
// of the total loss:
//
//	w_k = −log( L_k / Σ_{k'} L_{k'} )
//
// All weights are positive (every source's share is < 1 with ≥ 2 sources),
// so every source retains influence; differences in reliability are
// stretched by the log.
type ExpSum struct{}

// Name implements Scheme.
func (ExpSum) Name() string { return "exp-sum" }

// Weights implements Scheme.
func (s ExpSum) Weights(losses []float64) []float64 { return weights(s, losses) }

// WeightsInto implements Kernel; counts are not used.
func (ExpSum) WeightsInto(dst, losses []float64, _ []int) {
	negLogInto(dst, losses, stats.Sum(losses))
}

// ExpMax is the paper's preferred variant of ExpSum (Section 2.3): the
// normalization factor is the maximum per-source loss rather than the sum,
// which spreads the weights further apart so reliable sources dominate:
//
//	w_k = −log( L_k / max_{k'} L_{k'} )
//
// The worst source receives weight 0 (it is ignored in the next truth
// update); all better sources receive positive weight growing with their
// advantage. This is CRH's default.
type ExpMax struct{}

// Name implements Scheme.
func (ExpMax) Name() string { return "exp-max" }

// Weights implements Scheme.
func (s ExpMax) Weights(losses []float64) []float64 { return weights(s, losses) }

// WeightsInto implements Kernel; counts are not used.
func (ExpMax) WeightsInto(dst, losses []float64, _ []int) {
	_, max := stats.MinMax(losses)
	negLogInto(dst, losses, max)
}

func negLogInto(dst, losses []float64, norm float64) {
	if norm <= 0 {
		// Every source agrees with the truths: uniform weights.
		for k := range dst {
			dst[k] = 1
		}
		return
	}
	floor := norm * relFloor
	for k, l := range losses {
		if l < floor {
			l = floor
		}
		w := -math.Log(l / norm)
		if w <= 0 {
			w = 0 // normalizes −0 (l == norm) and rounding artifacts to +0
		}
		dst[k] = w
	}
}

// BestSource is the L^p-norm regularization of Eq(6): for any p ≥ 1 the
// optimal solution concentrates all weight on a single source — the one
// whose observations minimize the total loss — and treats its observations
// as the truths. Provided for the source-selection discussion; it assumes
// exactly one reliable source exists.
type BestSource struct{}

// Name implements Scheme.
func (BestSource) Name() string { return "lp-best-source" }

// Weights implements Scheme.
func (s BestSource) Weights(losses []float64) []float64 { return weights(s, losses) }

// WeightsInto implements Kernel; counts are not used.
func (BestSource) WeightsInto(dst, losses []float64, _ []int) {
	clear(dst)
	if i := stats.ArgMin(losses); i >= 0 {
		dst[i] = 1
	}
}

// TopJ is the integer-constrained source selection of Eq(7): exactly J
// sources receive weight 1 and the rest 0. Because the objective is linear
// in the weights once truths are fixed, the integer program's optimum is
// simply the J sources with the smallest losses.
type TopJ struct {
	// J is the number of sources to select; values outside [1, K] are
	// clamped.
	J int
}

// Name implements Scheme.
func (TopJ) Name() string { return "top-j" }

// Weights implements Scheme.
func (t TopJ) Weights(losses []float64) []float64 { return weights(t, losses) }

// WeightsInto implements Kernel; counts are not used.
func (t TopJ) WeightsInto(dst, losses []float64, _ []int) {
	k := len(losses)
	j := t.J
	if j < 1 {
		j = 1
	}
	if j > k {
		j = k
	}
	// Selection by repeated scan is O(J·K); J and K are small (sources
	// number in the tens). A nonzero dst entry marks a chosen source.
	clear(dst)
	for n := 0; n < j; n++ {
		best := -1
		for i, l := range losses {
			if dst[i] != 0 {
				continue
			}
			if best == -1 || l < losses[best] {
				best = i
			}
		}
		dst[best] = 1
	}
}

// CATD is the confidence-aware weight scheme of Li et al., "A
// Confidence-Aware Approach for Truth Discovery on Long-Tail Data"
// (VLDB 2015) — reference [23] of the CRH paper and future work it points
// to. Instead of the point estimate 1/Σd (which wildly over-trusts
// sources with few observations), each source's weight is scaled by the
// chi-squared lower quantile of its claim count, the upper bound of the
// (1−α) confidence interval on its error variance:
//
//	w_k = χ²(α/2, n_k) / Σ_e d(v*_e, v_e^k)
//
// With many claims χ²(α/2, n) ≈ n and the weight approaches the plain
// inverse loss; with few claims the quantile collapses toward 0 and the
// source is discounted no matter how lucky its record looks.
type CATD struct {
	// Alpha is the significance level (default 0.05).
	Alpha float64
}

// Name implements Scheme.
func (CATD) Name() string { return "catd" }

// Weights implements Scheme: every source counts as observed once, so
// CATD degrades to inverse-loss weighting.
func (c CATD) Weights(losses []float64) []float64 { return weights(c, losses) }

// WeightsInto implements Kernel. losses are per-observation means (the
// solver's default normalization), so the total deviation is
// loss·count; nil counts count every source once.
func (c CATD) WeightsInto(dst, losses []float64, counts []int) {
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	_, max := stats.MinMax(losses)
	if max <= 0 {
		for i := range dst {
			dst[i] = 1
		}
		return
	}
	for k, l := range losses {
		n := 1
		if counts != nil {
			n = counts[k]
		}
		if n <= 0 {
			dst[k] = 0
			continue
		}
		// Smoothing: one pseudo-observation at the worst per-observation
		// loss. A source with zero observed deviation keeps a finite
		// weight whose size is governed by its claim count (via the
		// χ² numerator) instead of exploding — the long-tail protection
		// the scheme exists for.
		total := l*float64(n) + max
		dst[k] = stats.ChiSquareInv(alpha/2, float64(n)) / total
	}
	// Rescale so the best source has weight comparable to the log
	// schemes (pure scale does not affect the truth updates, but keeps
	// reported weights readable).
	_, wmax := stats.MinMax(dst)
	if wmax > 0 {
		for k := range dst {
			dst[k] /= wmax
		}
	}
}
