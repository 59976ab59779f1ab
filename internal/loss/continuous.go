package loss

import (
	"math"

	"github.com/crhkit/crh/internal/stats"
)

// NormalizedSquared is the normalized squared loss of Eq(13):
//
//	d(v*, v) = (v* − v)² / std
//
// whose weighted-loss minimizer is the weighted mean (Eq 14). It is the
// natural choice for well-behaved continuous data but is sensitive to
// outliers.
type NormalizedSquared struct{}

// Name implements Continuous.
func (NormalizedSquared) Name() string { return "squared" }

// Truth implements Continuous: the weighted mean.
func (l NormalizedSquared) Truth(vals, ws []float64) float64 {
	return l.TruthBuf(vals, ws, nil, nil)
}

// TruthBuf implements ContinuousKernel: the weighted mean needs no
// scratch.
func (NormalizedSquared) TruthBuf(vals, ws, _, _ []float64) float64 {
	return stats.WeightedMean(vals, ws)
}

// Deviation implements Continuous.
func (NormalizedSquared) Deviation(truth, obs, std float64) float64 {
	d := truth - obs
	return d * d / StdGuard(std)
}

// NormalizedAbsolute is the normalized absolute-deviation loss of Eq(15):
//
//	d(v*, v) = |v* − v| / std
//
// whose weighted-loss minimizer is the weighted median (Eq 16). It is
// robust to outliers and is the paper's default for continuous data.
type NormalizedAbsolute struct{}

// Name implements Continuous.
func (NormalizedAbsolute) Name() string { return "absolute" }

// Truth implements Continuous: the weighted median.
func (l NormalizedAbsolute) Truth(vals, ws []float64) float64 {
	return l.TruthBuf(vals, ws, make([]float64, len(vals)), make([]float64, len(vals)))
}

// TruthBuf implements ContinuousKernel: the weighted median by expected
// O(n) quickselect into caller scratch (the solver's hottest path on
// continuous data).
func (NormalizedAbsolute) TruthBuf(vals, ws, vbuf, wbuf []float64) float64 {
	return stats.WeightedMedianBuf(vals, ws, vbuf, wbuf)
}

// Deviation implements Continuous.
func (NormalizedAbsolute) Deviation(truth, obs, std float64) float64 {
	return math.Abs(truth-obs) / StdGuard(std)
}
