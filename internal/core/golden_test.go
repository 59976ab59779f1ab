package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// The golden suite pins the solver against the exact outputs of the
// pre-columnar (PR ≤ 9) implementation: every truth, weight, objective
// and confidence value is stored as its Float64bits and compared
// bit-for-bit. Unlike the self-consistency equivalence grid — which
// only proves every worker budget agrees with the sequential run — the
// goldens prove the rewritten solver agrees with the solver that
// produced them. Regenerating them (-update-golden) is a semantic
// change and needs the same scrutiny as editing an algorithm.

var updateGolden = flag.Bool("update-golden", false, "rewrite the solver golden files from the current implementation")

// goldenCase is one (dataset, config) cell of the pinned grid. Datasets
// come from the equivalence grid's synthesize so the goldens and the
// worker-equivalence suite exercise the same data shapes.
type goldenCase struct {
	name string
	data equivCase
	seed int64
	cfg  func(d *data.Dataset) Config
}

func goldenGrid() []goldenCase {
	return []goldenCase{
		{
			name: "mixed-default",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "continuous-default",
			data: equivCase{"continuous", 3, 0, 10, 200, 0.2},
			seed: 102,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "categorical-default",
			data: equivCase{"categorical", 0, 3, 8, 200, 0.2},
			seed: 103,
			cfg:  func(*data.Dataset) Config { return Config{} },
		},
		{
			name: "mixed-squaredprob-expsum",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{
					ContinuousLoss:  loss.NormalizedSquared{},
					CategoricalLoss: loss.SquaredProb{},
					Scheme:          reg.ExpSum{},
				}
			},
		},
		{
			name: "mixed-catd-confidence",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{Scheme: reg.CATD{}, ComputeConfidence: true}
			},
		},
		{
			name: "mixed-groups",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 101,
			cfg: func(*data.Dataset) Config {
				return Config{PropertyGroups: [][]int{{0, 2}, {1, 3}}}
			},
		},
		{
			name: "mixed-known-truths",
			data: equivCase{"mixed", 2, 2, 9, 200, 0.25},
			seed: 104,
			cfg: func(d *data.Dataset) Config {
				known := data.NewTableFor(d)
				for e := 0; e < d.NumEntries(); e += 17 {
					if d.Prop(d.EntryProp(e)).Type == data.Categorical {
						known.Set(e, data.Cat(1))
					} else {
						known.Set(e, data.Float(42))
					}
				}
				return Config{KnownTruths: known}
			},
		},
		{
			// A caller-seeded start: the first Step I losses are taken
			// against the seed, not against a uniform-weight pass.
			name: "mixed-init-truths",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 107,
			cfg: func(d *data.Dataset) Config {
				return Config{InitTruths: lastObserverTruths(d)}
			},
		},
		{
			// The seed carries no distributions, so the probabilistic
			// loss's first deviations see none.
			name: "mixed-init-truths-squaredprob-expsum",
			data: equivCase{"mixed", 2, 2, 12, 250, 0.3},
			seed: 107,
			cfg: func(d *data.Dataset) Config {
				return Config{
					InitTruths:      lastObserverTruths(d),
					ContinuousLoss:  loss.NormalizedSquared{},
					CategoricalLoss: loss.SquaredProb{},
					Scheme:          reg.ExpSum{},
				}
			},
		},
		{
			name: "mixed-init-known-truths",
			data: equivCase{"mixed", 2, 2, 9, 200, 0.25},
			seed: 108,
			cfg: func(d *data.Dataset) Config {
				known := data.NewTableFor(d)
				for e := 0; e < d.NumEntries(); e += 13 {
					if d.Prop(d.EntryProp(e)).Type == data.Categorical {
						known.Set(e, data.Cat(2))
					} else {
						known.Set(e, data.Float(7))
					}
				}
				return Config{InitTruths: lastObserverTruths(d), KnownTruths: known}
			},
		},
		{
			// User-supplied losses without kernel methods: the
			// adapter path.
			name: "mixed-custom-topj",
			data: equivCase{"mixed", 2, 2, 10, 200, 0.3},
			seed: 106,
			cfg: func(*data.Dataset) Config {
				return Config{
					ContinuousLoss:  trimmedMean{},
					CategoricalLoss: smoothedVote{},
					Scheme:          reg.TopJ{J: 2},
				}
			},
		},
		{
			name: "mixed-editdist-huber",
			data: equivCase{"mixed", 1, 1, 8, 150, 0.3},
			seed: 105,
			cfg: func(*data.Dataset) Config {
				return Config{
					ContinuousLoss:  loss.Huber{},
					CategoricalLoss: loss.EditDistance{},
				}
			},
		},
	}
}

// lastObserverTruths seeds every observed entry with the claim of its
// highest-indexed observer — in the synthetic grid the least reliable
// source — so an InitTruths start begins far from the planted truths.
func lastObserverTruths(d *data.Dataset) *data.Table {
	t := data.NewTableFor(d)
	for e := 0; e < d.NumEntries(); e++ {
		d.ForEntry(e, func(_ int, v data.Value) { t.Set(e, v) })
	}
	return t
}

// trimmedMean is a test-only continuous loss with no kernel methods: the
// truth is the weighted mean of the values left after dropping the
// smallest and largest. Its Truth sorts vals in place, so a solver that
// handed it shared column storage would corrupt later passes and the
// golden would catch it.
type trimmedMean struct{}

func (trimmedMean) Name() string { return "test-trimmed-mean" }

func (trimmedMean) Truth(vals, ws []float64) float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	sorted := make([]float64, len(vals))
	sw := make([]float64, len(vals))
	for i, j := range idx {
		sorted[i], sw[i] = vals[j], ws[j]
	}
	copy(vals, sorted)
	if len(vals) > 2 {
		sorted, sw = sorted[1:len(sorted)-1], sw[1:len(sw)-1]
	}
	var num, den float64
	for i, v := range sorted {
		num += sw[i] * v
		den += sw[i]
	}
	if den == 0 {
		return sorted[len(sorted)/2]
	}
	return num / den
}

func (trimmedMean) Deviation(truth, obs, std float64) float64 {
	if std < 1e-12 {
		std = 1e-12
	}
	return math.Abs(truth-obs) / std
}

// smoothedVote is a test-only soft categorical loss with no kernel
// methods: the truth distribution is the Laplace-smoothed weighted vote
// and the deviation is one minus the observation's probability. It pins
// that a user loss's own distribution reaches its Deviation.
type smoothedVote struct{}

func (smoothedVote) Name() string { return "test-smoothed-vote" }

func (smoothedVote) Truth(obs []int, ws []float64, p *data.Property) (int, []float64) {
	L := p.NumCats()
	dist := make([]float64, L)
	total := float64(L)
	for i := range dist {
		dist[i] = 1
	}
	for j, c := range obs {
		dist[c] += ws[j]
		total += ws[j]
	}
	best := 0
	for i := range dist {
		dist[i] /= total
		if dist[i] > dist[best] {
			best = i
		}
	}
	return best, dist
}

func (smoothedVote) Deviation(_ int, dist []float64, obs int, _ *data.Property) float64 {
	if dist == nil {
		return 1
	}
	return 1 - dist[obs]
}

// dumpResult renders a Result into the canonical golden text: one line
// per pinned quantity, floats as 0x%016x Float64bits. The dump is the
// unit of comparison — the golden test is a byte equality check.
func dumpResult(d *data.Dataset, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations %d\n", res.Iterations)
	fmt.Fprintf(&b, "converged %t\n", res.Converged)
	for i, o := range res.Objective {
		fmt.Fprintf(&b, "objective %d 0x%016x\n", i, math.Float64bits(o))
	}
	for k, w := range res.Weights {
		fmt.Fprintf(&b, "weight %d 0x%016x\n", k, math.Float64bits(w))
	}
	for g := range res.GroupWeights {
		for k, w := range res.GroupWeights[g] {
			fmt.Fprintf(&b, "gweight %d %d 0x%016x\n", g, k, math.Float64bits(w))
		}
	}
	for e := 0; e < d.NumEntries(); e++ {
		v, ok := res.Truths.Get(e)
		if !ok {
			continue
		}
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			fmt.Fprintf(&b, "truth %d cat %d\n", e, v.C)
		} else {
			fmt.Fprintf(&b, "truth %d cont 0x%016x\n", e, math.Float64bits(v.F))
		}
	}
	for e, c := range res.Confidence {
		fmt.Fprintf(&b, "conf %d 0x%016x\n", e, math.Float64bits(c))
	}
	return b.String()
}

// diffLine locates the first differing line between two dumps for a
// readable failure message.
func diffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// TestGoldenBitIdentity runs every grid cell at several worker budgets
// and requires the dump to match the committed golden byte for byte.
func TestGoldenBitIdentity(t *testing.T) {
	for _, gc := range goldenGrid() {
		t.Run(gc.name, func(t *testing.T) {
			d := synthesize(gc.data, gc.seed)
			cfg := gc.cfg(d)
			cfg.Workers = 1
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			dump := dumpResult(d, res)
			path := goldenPath(gc.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(dump))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden only if the change is intentional): %v", err)
			}
			if string(want) != dump {
				t.Fatalf("sequential output diverged from committed golden: %s", diffLine(string(want), dump))
			}
			// The committed golden also pins every parallel budget: the
			// worker grid must reproduce the same bytes.
			for _, w := range []int{2, 8} {
				pcfg := gc.cfg(d)
				pcfg.Workers = w
				pres, err := Run(d, pcfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if pd := dumpResult(d, pres); pd != dump {
					t.Fatalf("workers=%d diverged from golden: %s", w, diffLine(dump, pd))
				}
			}
		})
	}
}
