package core

import (
	"fmt"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// FuzzRunSmall hardens the solver against arbitrary tiny datasets: Run
// must never panic, a parallel run must be bit-identical to the
// sequential one (the docs/PARALLEL.md contract, probed at whatever
// worker budget the fuzzer picks), and under the provably convex
// configuration (squared losses + ExpSum, no per-property
// renormalization) the objective must never increase.
//
// The input bytes are decoded by fuzzDataset, whose selector byte picks
// the worker budget.
func FuzzRunSmall(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})                            // 1 source, 1 object, 1 prop, no observations
	f.Add([]byte{1, 1, 1, 2, 0, 0, 0, 10, 1, 0, 0, 200}) // two sources disagree on one entry
	f.Add([]byte{2, 3, 2, 7, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 0, 9, 0, 1, 2, 1, 1, 2, 1, 3})
	f.Add([]byte{4, 7, 2, 8, 0, 0, 0, 128, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 0, 3, 4, 4, 1, 4, 0, 5, 2, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		d, sel := fuzzDataset(in)
		if d == nil {
			return
		}
		workers := int(sel) % 9

		// Default configuration: no panic, and any worker budget must
		// reproduce the sequential result bit for bit.
		ref, refErr := Run(d, Config{Workers: 1})
		got, gotErr := Run(d, Config{Workers: workers})
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("workers=1 err %v but workers=%d err %v", refErr, workers, gotErr)
		}
		if refErr == nil {
			requireBitIdentical(t, d, ref, got, fmt.Sprintf("fuzz/workers=%d", workers))
		}

		// Convex configuration: block coordinate descent must not let
		// the objective rise. Count normalization must be off too: it
		// rescales each source's loss by its observation count, which
		// the truth step does not minimize, so on datasets with
		// heterogeneous counts the normalized objective can rise even
		// though the raw one falls (the fuzzer found exactly such an
		// input; it lives in the corpus as a regression seed).
		res, err := Run(d, Config{
			ContinuousLoss:            loss.NormalizedSquared{},
			CategoricalLoss:           loss.SquaredProb{},
			Scheme:                    reg.ExpSum{},
			DisablePropNormalization:  true,
			DisableCountNormalization: true,
			Workers:                   workers,
			MaxIters:                  15,
		})
		if err != nil {
			return // empty datasets are rejected, not solved
		}
		for i := 1; i < len(res.Objective); i++ {
			if res.Objective[i] > res.Objective[i-1]+1e-9 {
				t.Fatalf("objective increased at iter %d: %v -> %v (series %v)",
					i, res.Objective[i-1], res.Objective[i], res.Objective)
			}
		}
	})
}

// fuzzDataset decodes a fuzz input into a tiny dataset: [K-1, N-1, M-1,
// sel] followed by observations of 4 bytes each (source, object,
// property, value). Odd properties are categorical with 4 values;
// continuous values are small quarter-integers so every observation is
// finite. sel is returned for the target to pick a configuration; a nil
// dataset means the input is too short.
func fuzzDataset(in []byte) (*data.Dataset, byte) {
	if len(in) < 4 {
		return nil, 0
	}
	K := 1 + int(in[0])%5
	N := 1 + int(in[1])%8
	M := 1 + int(in[2])%3
	b := data.NewBuilder()
	props := make([]int, M)
	for m := 0; m < M; m++ {
		if m%2 == 1 {
			props[m] = b.MustProperty(fmt.Sprintf("c%d", m), data.Categorical)
			for c := 0; c < 4; c++ {
				b.CatValue(props[m], fmt.Sprintf("v%d", c))
			}
		} else {
			props[m] = b.MustProperty(fmt.Sprintf("f%d", m), data.Continuous)
		}
	}
	for o := 0; o < N; o++ {
		b.Object(fmt.Sprintf("o%d", o))
	}
	for k := 0; k < K; k++ {
		b.Source(fmt.Sprintf("s%d", k))
	}
	body := in[4:]
	for len(body) >= 4 {
		src := int(body[0]) % K
		obj := int(body[1]) % N
		m := int(body[2]) % M
		var v data.Value
		if m%2 == 1 {
			v = data.Cat(int(body[3]) % 4)
		} else {
			v = data.Float(float64(int8(body[3])) / 4)
		}
		b.ObserveIdx(src, obj, props[m], v)
		body = body[4:]
	}
	return b.Build(), in[3]
}
