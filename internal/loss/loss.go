// Package loss provides the loss functions that plug into the CRH
// optimization framework (Section 2.4 of the paper). Each loss couples two
// operations the block-coordinate-descent solver needs:
//
//   - Deviation: d_m(v*, v^k), the penalty for an observation given the
//     current truth, used in the source-weight update (Step I).
//   - Truth: argmin_v Σ_k w_k · d_m(v, v^k), the weighted aggregation used
//     in the truth update (Step II).
//
// Continuous and categorical properties use distinct interfaces because
// their truth spaces differ: continuous truths range over ℝ while
// categorical truths range over the property's dictionary (optionally with
// a probability distribution over it). The solver calls each loss in its
// kernel shape (ContinuousKernel, CategoricalKernel); a loss without one
// is adapted once per run by AsContinuousKernel or AsCategoricalKernel.
package loss

import "github.com/crhkit/crh/internal/data"

// Continuous is a loss over real-valued properties. std is the standard
// deviation of the entry's observations across sources, used to normalize
// deviations so that entries with different scales contribute comparably
// (Eq 13 and Eq 15); implementations must tolerate std == 0.
type Continuous interface {
	// Name identifies the loss in options and reports.
	Name() string
	// Truth returns argmin_v Σ_k ws[k] · d(v, vals[k]).
	Truth(vals, ws []float64) float64
	// Deviation returns d(truth, obs) normalized by std.
	Deviation(truth, obs, std float64) float64
}

// Categorical is a loss over discrete-valued properties. Observations and
// truths are category indices into the property's dictionary.
type Categorical interface {
	// Name identifies the loss in options and reports.
	Name() string
	// Truth aggregates weighted observations into a truth: the category
	// index minimizing the weighted loss, plus an optional probability
	// distribution over categories (nil for hard losses). obs[j] is the
	// jth observer's category and ws[j] its source weight.
	Truth(obs []int, ws []float64, p *data.Property) (truth int, dist []float64)
	// Deviation returns the loss of an observation against the current
	// truth. dist is the distribution returned by Truth (nil for hard
	// losses).
	Deviation(truth int, dist []float64, obs int, p *data.Property) float64
}

// ContinuousKernel is the one shape of a continuous loss the solver
// calls: the truth update with caller-owned scratch, so steady-state
// iterations allocate nothing. The built-in losses with a scratch form
// implement it; every other Continuous reaches the solver through
// AsContinuousKernel. A kernel must return exactly the bits Truth
// returns: it is a performance contract, never a semantic one.
type ContinuousKernel interface {
	Continuous
	// TruthBuf returns Truth(vals, ws). vbuf and wbuf (each of length
	// ≥ len(vals)) are caller-owned working buffers it may overwrite;
	// vals is read-only.
	TruthBuf(vals, ws, vbuf, wbuf []float64) float64
}

// CategoricalKernel is the one shape of a categorical loss the solver
// calls: the truth update over interned category codes from the
// columnar claim index (codes coincide with the property's category
// indices, so tie-breaking is unchanged). The built-in losses with a
// code form implement it; every other Categorical reaches the solver
// through AsCategoricalKernel. TruthCodes must be bit-identical to
// Truth.
type CategoricalKernel interface {
	Categorical
	// NeedsDist reports whether TruthCodes keeps its distribution in
	// solver-owned storage. When true the solver hands every
	// categorical entry a persistent slice of length p.NumCats() as
	// dist; the parallel MapReduce formulation, which has no per-entry
	// state, rejects such losses.
	NeedsDist() bool
	// TruthCodes is Truth over interned codes: codes[j] is the jth
	// observer's category code and ws[j] its source weight. votes is
	// transient scratch (length ≥ p.NumCats(), contents arbitrary,
	// clobbered). dist is the entry's distribution storage when
	// NeedsDist, which the kernel overwrites; other kernels ignore it.
	// It returns the winning category index and the entry's
	// distribution: nil for hard losses, the same values Truth returns
	// otherwise.
	TruthCodes(codes []uint32, ws []float64, votes, dist []float64, p *data.Property) (int, []float64)
}

// AsContinuousKernel returns l in the solver's shape: l itself when it
// implements ContinuousKernel, otherwise l behind the adapter, whose
// TruthBuf copies vals into vbuf before calling Truth (a loss without a
// kernel may reorder its input, and the solver's columns are shared).
func AsContinuousKernel(l Continuous) ContinuousKernel {
	if k, ok := l.(ContinuousKernel); ok {
		return k
	}
	return continuousAdapter{l}
}

type continuousAdapter struct{ Continuous }

func (a continuousAdapter) TruthBuf(vals, ws, vbuf, _ []float64) float64 {
	v := vbuf[:len(vals)]
	copy(v, vals)
	return a.Truth(v, ws)
}

// AsCategoricalKernel returns l in the solver's shape: l itself when it
// implements CategoricalKernel, otherwise l behind the adapter, whose
// TruthCodes calls Truth and passes on the distribution Truth returns
// (nil for a hard loss).
func AsCategoricalKernel(l Categorical) CategoricalKernel {
	if k, ok := l.(CategoricalKernel); ok {
		return k
	}
	return categoricalAdapter{l}
}

type categoricalAdapter struct{ Categorical }

func (categoricalAdapter) NeedsDist() bool { return false }

func (a categoricalAdapter) TruthCodes(codes []uint32, ws []float64, _, _ []float64, p *data.Property) (int, []float64) {
	obs := make([]int, len(codes))
	for j, c := range codes {
		obs[j] = int(c)
	}
	return a.Truth(obs, ws, p)
}

// codesOf converts category indices to interned codes, for the built-in
// Truth methods that wrap their kernels.
func codesOf(obs []int) []uint32 {
	codes := make([]uint32, len(obs))
	for j, c := range obs {
		codes[j] = uint32(c)
	}
	return codes
}

// StdGuard floors an entry's spread at 1e-12 so the normalized losses
// (Eq 13 and Eq 15) and the solver's confidence band stay finite when
// every source agrees.
func StdGuard(std float64) float64 {
	const eps = 1e-12
	if std < eps {
		return eps
	}
	return std
}
