package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The paper oracle: a plain transcription of CRH (Algorithm 1) for the
// losses and weight schemes the paper gives in closed form. It reads the
// dataset through data.Dataset one entry at a time and shares nothing
// with the solver: no columns, shards, kernels, reused buffers or stats
// helpers. The differential tests below then check the solver against
// the paper's equations, not only against earlier versions of itself.
//
// Transcribed:
//   - Step I weights: Eq 4-5 (ExpSum, w_k = −log(L_k / Σ L)) and the
//     max normalization of Section 2.3 (ExpMax, w_k = −log(L_k / max L));
//   - Step II truths: Eq 9 (weighted vote), Eq 12 (probabilistic mean of
//     one-hot vectors), Eq 14 (weighted mean), Eq 16 (weighted median);
//   - deviations: Eq 8, Eq 10, Eq 13 and Eq 15 with the entry spread as
//     the normalizer;
//   - Section 2.5's count and property normalizations;
//   - the Algorithm 1 loop with the relative-decrease stopping rule.
//
// Besides the equations it transcribes the guards the implementation
// documents for degenerate inputs: a 1e-12 floor on the spread, a loss
// floor of 1e-9 of the normalizer in −log, uniform weights when every
// loss is zero, unweighted aggregation when every weight is zero,
// lowest-index tie breaking, and a probabilistic deviation of 1 for an
// entry with no distribution.
//
// Tolerance: oracleTol (relative, absolute near zero) on weights,
// objectives and continuous truths; categorical truths and iteration
// counts must match exactly, except that runs whose objective has
// vanished may stop an iteration apart (see objectiveVanished).
const oracleTol = 1e-9

// oracleConfig selects one closed-form configuration.
type oracleConfig struct {
	squared         bool // Eq 13-14; false: Eq 15-16
	probabilistic   bool // Eq 10-12; false: Eq 8-9
	expSum          bool // Eq 5; false: max normalization
	noCount, noProp bool
	maxIters        int
	tol             float64
}

// solverConfig is the solver Config for the same configuration.
func (oc oracleConfig) solverConfig() Config {
	cfg := Config{
		ContinuousLoss:            loss.NormalizedAbsolute{},
		CategoricalLoss:           loss.ZeroOne{},
		Scheme:                    reg.ExpMax{},
		DisableCountNormalization: oc.noCount,
		DisablePropNormalization:  oc.noProp,
		MaxIters:                  oc.maxIters,
		Tol:                       oc.tol,
	}
	if oc.squared {
		cfg.ContinuousLoss = loss.NormalizedSquared{}
	}
	if oc.probabilistic {
		cfg.CategoricalLoss = loss.SquaredProb{}
	}
	if oc.expSum {
		cfg.Scheme = reg.ExpSum{}
	}
	return cfg
}

func (oc oracleConfig) String() string {
	return fmt.Sprintf("squared=%t prob=%t expsum=%t nocount=%t noprop=%t",
		oc.squared, oc.probabilistic, oc.expSum, oc.noCount, oc.noProp)
}

type oracleResult struct {
	truths     []data.Value
	has        []bool
	weights    []float64
	objective  []float64
	iterations int
	converged  bool
}

// oracleRun runs Algorithm 1 on d.
func oracleRun(d *data.Dataset, oc oracleConfig) oracleResult {
	K, E := d.NumSources(), d.NumEntries()
	truths := make([]data.Value, E)
	has := make([]bool, E)
	dists := make([][]float64, E)
	spread := make([]float64, E)
	for e := 0; e < E; e++ {
		if d.Prop(d.EntryProp(e)).Type == data.Continuous {
			_, vals, _ := oracleClaims(d, e)
			spread[e] = oraclePopStd(vals)
		}
	}

	// Step II for every entry under weights w.
	updateTruths := func(w []float64) {
		for e := 0; e < E; e++ {
			srcs, vals, cats := oracleClaims(d, e)
			if len(srcs) == 0 {
				continue
			}
			ws := make([]float64, len(srcs))
			for j, k := range srcs {
				ws[j] = w[k]
			}
			has[e] = true
			p := d.Prop(d.EntryProp(e))
			switch {
			case p.Type == data.Continuous && oc.squared:
				truths[e] = data.Float(oracleWeightedMean(vals, ws))
			case p.Type == data.Continuous:
				truths[e] = data.Float(oracleWeightedMedian(vals, ws))
			case oc.probabilistic:
				dist := oracleProbMean(cats, ws, p.NumCats())
				dists[e] = dist
				truths[e] = data.Cat(oracleArgMax(dist))
			default:
				truths[e] = data.Cat(oracleArgMax(oracleVote(cats, ws, p.NumCats())))
			}
		}
	}

	// Step I's input: each source's normalized loss against the truths.
	sourceLosses := func() []float64 {
		M := d.NumProps()
		sum := make([][]float64, K)
		cnt := make([][]int, K)
		for k := range sum {
			sum[k] = make([]float64, M)
			cnt[k] = make([]int, M)
		}
		for e := 0; e < E; e++ {
			if !has[e] {
				continue
			}
			m := d.EntryProp(e)
			srcs, vals, cats := oracleClaims(d, e)
			for j, k := range srcs {
				var dev float64
				switch {
				case d.Prop(m).Type == data.Continuous && oc.squared:
					r := truths[e].F - vals[j]
					dev = r * r / math.Max(spread[e], 1e-12) // Eq 13
				case d.Prop(m).Type == data.Continuous:
					dev = math.Abs(truths[e].F-vals[j]) / math.Max(spread[e], 1e-12) // Eq 15
				case oc.probabilistic:
					dev = oracleProbDeviation(dists[e], cats[j]) // Eq 10
				case int(truths[e].C) != cats[j]:
					dev = 1 // Eq 8
				}
				sum[k][m] += dev
				cnt[k][m]++
			}
		}
		// Section 2.5: average each source's deviations per observation,
		// rescale each property by its largest source average, then
		// average over the properties the source observed.
		avg := make([][]float64, K)
		for k := range avg {
			avg[k] = make([]float64, M)
			for m := 0; m < M; m++ {
				if cnt[k][m] == 0 {
					continue
				}
				avg[k][m] = sum[k][m]
				if !oc.noCount {
					avg[k][m] /= float64(cnt[k][m])
				}
			}
		}
		if !oc.noProp {
			for m := 0; m < M; m++ {
				var max float64
				for k := 0; k < K; k++ {
					max = math.Max(max, avg[k][m])
				}
				if max > 0 {
					for k := 0; k < K; k++ {
						avg[k][m] /= max
					}
				}
			}
		}
		losses := make([]float64, K)
		for k := range losses {
			var observed int
			for m := 0; m < M; m++ {
				if cnt[k][m] > 0 {
					losses[k] += avg[k][m]
					observed++
				}
			}
			if observed > 0 && !oc.noCount {
				losses[k] /= float64(observed)
			}
		}
		return losses
	}

	// Step I: Eq 5 with the sum (ExpSum) or the max (ExpMax) of the
	// losses as the normalizer.
	assignWeights := func(losses []float64) []float64 {
		var norm float64
		for _, l := range losses {
			if oc.expSum {
				norm += l
			} else {
				norm = math.Max(norm, l)
			}
		}
		w := make([]float64, len(losses))
		for k, l := range losses {
			if norm <= 0 {
				w[k] = 1
				continue
			}
			w[k] = math.Max(0, -math.Log(math.Max(l, norm*1e-9)/norm))
		}
		return w
	}

	// Algorithm 1: initialize the truths under uniform weights, then
	// alternate Step I and Step II until the objective stops falling.
	w := make([]float64, K)
	for k := range w {
		w[k] = 1
	}
	updateTruths(w)
	res := oracleResult{truths: truths, has: has}
	prev := math.Inf(1)
	for it := 0; it < oc.maxIters; it++ {
		w = assignWeights(sourceLosses())
		updateTruths(w)
		var obj float64
		for k, l := range sourceLosses() {
			obj += w[k] * l
		}
		res.objective = append(res.objective, obj)
		res.iterations = it + 1
		if !math.IsInf(prev, 1) && (prev-obj)/math.Max(math.Abs(prev), 1e-12) < oc.tol {
			res.converged = true
		}
		prev = obj
		if res.converged {
			break
		}
	}
	res.weights = w
	return res
}

// oracleClaims lists entry e's observers in source order with their
// continuous values or category indices.
func oracleClaims(d *data.Dataset, e int) (srcs []int, vals []float64, cats []int) {
	for k := 0; k < d.NumSources(); k++ {
		if !d.HasEntry(k, e) {
			continue
		}
		v := d.GetEntry(k, e)
		srcs = append(srcs, k)
		vals = append(vals, v.F)
		cats = append(cats, int(v.C))
	}
	return srcs, vals, cats
}

// oraclePopStd is the population standard deviation.
func oraclePopStd(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// oracleWeightedMean is Eq 14; with zero total weight, the plain mean.
func oracleWeightedMean(xs, ws []float64) float64 {
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	if den == 0 {
		return oracleWeightedMean(xs, oracleOnes(len(xs)))
	}
	return num / den
}

// oracleWeightedMedian is Eq 16: the observed v with W(x < v) < W/2 and
// W(x > v) ≤ W/2, found by Cormen's ascending scan over the distinct
// values with W(x > v) taken as W − W(x < v) − W(x = v). Where rounding
// leaves no value satisfying both conditions exactly, the implementation
// resolves the tie by this same scan, so the oracle computes W(x > v)
// the same way. Negative weights count as zero; with zero total weight
// it is the plain median.
func oracleWeightedMedian(xs, ws []float64) float64 {
	type claim struct{ x, w float64 }
	cs := make([]claim, len(xs))
	var total float64
	for i, x := range xs {
		cs[i] = claim{x, math.Max(ws[i], 0)}
		total += cs[i].w
	}
	sort.SliceStable(cs, func(a, b int) bool { return cs[a].x < cs[b].x })
	n := len(cs)
	if total == 0 {
		if n%2 == 1 {
			return cs[n/2].x
		}
		return (cs[n/2-1].x + cs[n/2].x) / 2
	}
	var below float64
	for i := 0; i < n; {
		var tie float64
		j := i
		for ; j < n && cs[j].x == cs[i].x; j++ {
			tie += cs[j].w
		}
		if below < total/2 && total-below-tie <= total/2 {
			return cs[i].x
		}
		below += tie
		i = j
	}
	return cs[n-1].x
}

// oracleVote is Eq 9's tally: each category's total observer weight.
func oracleVote(cats []int, ws []float64, L int) []float64 {
	votes := make([]float64, L)
	for j, c := range cats {
		votes[c] += ws[j]
	}
	return votes
}

// oracleProbMean is Eq 12: the weighted mean of the observations'
// one-hot vectors; with zero total weight, the unweighted mean.
func oracleProbMean(cats []int, ws []float64, L int) []float64 {
	var total float64
	for _, w := range ws {
		total += w
	}
	if total == 0 {
		return oracleProbMean(cats, oracleOnes(len(cats)), L)
	}
	dist := oracleVote(cats, ws, L)
	for i := range dist {
		dist[i] /= total
	}
	return dist
}

// oracleProbDeviation is Eq 10: the squared distance ‖I* − I_obs‖²
// between the truth distribution and the observation's one-hot vector,
// expanded as Σ_j I*_j² − 2·I*_obs + 1. The expansion rounds differently
// from the direct sum, and Section 2.5's property normalization turns a
// property whose deviations are all rounding noise into losses of order
// one, so on tiny inputs only the same rounding keeps the two comparable.
func oracleProbDeviation(dist []float64, obs int) float64 {
	if dist == nil {
		return 1
	}
	var sq float64
	for _, p := range dist {
		sq += p * p
	}
	return sq - 2*dist[obs] + 1
}

// oracleArgMax returns the first index of the largest element.
func oracleArgMax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func oracleOnes(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// oracleClose reports whether a and b agree within oracleTol.
func oracleClose(a, b float64) bool {
	return math.Abs(a-b) <= oracleTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// objectiveVanished reports whether both runs stopped at an objective
// within oracleTol of zero. There the relative-decrease stopping rule
// divides rounding noise by rounding noise, so the two may legitimately
// stop an iteration or two apart.
func objectiveVanished(want oracleResult, got *Result) bool {
	return math.Abs(want.objective[want.iterations-1]) <= oracleTol &&
		math.Abs(got.Objective[got.Iterations-1]) <= oracleTol
}

// compareOracle fails t unless the solver's result matches the oracle's
// within oracleTol.
func compareOracle(t *testing.T, d *data.Dataset, want oracleResult, got *Result, label string) {
	t.Helper()
	if want.converged != got.Converged || (want.iterations != got.Iterations && !objectiveVanished(want, got)) {
		t.Fatalf("%s: oracle ran %d iterations (converged %t), solver %d (converged %t)",
			label, want.iterations, want.converged, got.Iterations, got.Converged)
	}
	for i := 0; i < want.iterations && i < got.Iterations; i++ {
		if o := want.objective[i]; !oracleClose(o, got.Objective[i]) {
			t.Fatalf("%s: objective %d: oracle %v, solver %v", label, i, o, got.Objective[i])
		}
	}
	for k, w := range want.weights {
		if !oracleClose(w, got.Weights[k]) {
			t.Fatalf("%s: weight %d: oracle %v, solver %v", label, k, w, got.Weights[k])
		}
	}
	for e := range want.truths {
		v, ok := got.Truths.Get(e)
		if ok != want.has[e] {
			t.Fatalf("%s: entry %d resolved: oracle %t, solver %t", label, e, want.has[e], ok)
		}
		if !ok {
			continue
		}
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			if v.C != want.truths[e].C {
				t.Fatalf("%s: entry %d: oracle category %d, solver %d", label, e, want.truths[e].C, v.C)
			}
		} else if !oracleClose(v.F, want.truths[e].F) {
			t.Fatalf("%s: entry %d: oracle %v, solver %v", label, e, want.truths[e].F, v.F)
		}
	}
}

// oracleConfigs enumerates every closed-form configuration.
func oracleConfigs() []oracleConfig {
	var out []oracleConfig
	for bits := 0; bits < 32; bits++ {
		out = append(out, oracleConfig{
			squared:       bits&1 != 0,
			probabilistic: bits&2 != 0,
			expSum:        bits&4 != 0,
			noCount:       bits&8 != 0,
			noProp:        bits&16 != 0,
			maxIters:      20,
			tol:           1e-6,
		})
	}
	return out
}

// TestOracleGrid differential-tests Prepared.Run against the oracle on a
// seeded grid of datasets, under every closed-form configuration and at
// one and several workers.
func TestOracleGrid(t *testing.T) {
	grid := []equivCase{
		{"continuous", 2, 0, 6, 40, 0.2},
		{"categorical", 0, 2, 7, 40, 0.2},
		{"mixed", 2, 2, 9, 120, 0.3},
	}
	for gi, c := range grid {
		for seed := int64(0); seed < 3; seed++ {
			d := synthesize(c, 700+int64(gi)*10+seed)
			prep := Prepare(d)
			for _, oc := range oracleConfigs() {
				want := oracleRun(d, oc)
				for _, w := range []int{1, 4} {
					cfg := oc.solverConfig()
					cfg.Workers = w
					got, err := prep.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					compareOracle(t, d, want, got, fmt.Sprintf("%s/seed=%d/%v/workers=%d", c.name, seed, oc, w))
				}
			}
		}
	}
}

// FuzzOracle differential-tests the solver against the oracle on
// arbitrary tiny datasets (decoded as in FuzzRunSmall), under the
// configuration selected by the workers byte.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 10, 1, 0, 0, 200})
	f.Add([]byte{2, 3, 2, 7, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 0, 9, 0, 1, 2, 1, 1, 2, 1, 3})
	f.Add([]byte{4, 7, 2, 21, 0, 0, 0, 128, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 0, 3, 4, 4, 1, 4, 0, 5, 2, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		d, sel := fuzzDataset(in)
		if d == nil || d.NumObservations() == 0 {
			return
		}
		oc := oracleConfigs()[int(sel)%32]
		got, err := Run(d, oc.solverConfig())
		if err != nil {
			t.Fatal(err)
		}
		compareOracle(t, d, oracleRun(d, oc), got, oc.String())
	})
}
