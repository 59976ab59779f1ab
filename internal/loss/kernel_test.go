package loss

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crhkit/crh/internal/data"
)

// The solver calls every loss in its kernel shape, so a kernel must
// return exactly the bits the loss's public Truth returns, on any input,
// including degenerate weights — whether the loss implements the kernel
// itself or reaches the solver through the adapter. These tests drive
// both paths over seeded random cases and compare Float64bits.

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// continuousBuiltins lists every built-in continuous loss and whether it
// implements ContinuousKernel itself.
func continuousBuiltins() []struct {
	l      Continuous
	native bool
} {
	return []struct {
		l      Continuous
		native bool
	}{
		{NormalizedAbsolute{}, true},
		{NormalizedSquared{}, true},
		{Huber{}, false},
		{SquaredBregman(), false},
		{EnsembleContinuous{Members: []Continuous{NormalizedAbsolute{}, NormalizedSquared{}}}, false},
	}
}

// categoricalBuiltins lists every built-in categorical loss and whether
// it implements CategoricalKernel itself.
func categoricalBuiltins() []struct {
	l      Categorical
	native bool
} {
	return []struct {
		l      Categorical
		native bool
	}{
		{ZeroOne{}, true},
		{SquaredProb{}, true},
		{EditDistance{}, false},
	}
}

// checkContinuousKernel compares AsContinuousKernel(l).TruthBuf with
// l.Truth over trials seeded random inputs, with clean and dirty scratch.
func checkContinuousKernel(t *testing.T, l Continuous, seed int64, trials int) {
	t.Helper()
	k := AsContinuousKernel(l)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(12)
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			// Coarse quantization provokes the duplicate-value and
			// numerical-tie paths (the fast median's fallback).
			vals[i] = math.Round(rng.NormFloat64() * 4)
			ws[i] = math.Round(rng.Float64()*8) / 4
		}
		if trial%7 == 0 {
			for i := range ws {
				ws[i] = 0 // zero total weight path
			}
		}
		orig := append([]float64(nil), vals...)
		want := l.Truth(append([]float64(nil), vals...), append([]float64(nil), ws...))
		vbuf, wbuf := make([]float64, n), make([]float64, n)
		got := k.TruthBuf(vals, ws, vbuf, wbuf)
		if !bitsEqual(want, got) {
			t.Fatalf("trial %d: TruthBuf %v, Truth %v (vals=%v ws=%v)", trial, got, want, vals, ws)
		}
		// Dirty scratch must not leak into the result.
		for i := range vbuf {
			vbuf[i], wbuf[i] = math.NaN(), math.NaN()
		}
		if got := k.TruthBuf(vals, ws, vbuf, wbuf); !bitsEqual(want, got) {
			t.Fatalf("trial %d: dirty scratch changed the result: %v vs %v", trial, got, want)
		}
		for i := range vals {
			if !bitsEqual(vals[i], orig[i]) {
				t.Fatalf("trial %d: TruthBuf modified vals", trial)
			}
		}
	}
}

// checkCategoricalKernel compares AsCategoricalKernel(l).TruthCodes with
// l.Truth over trials seeded random inputs, with dirty scratch.
func checkCategoricalKernel(t *testing.T, l Categorical, p *data.Property, seed int64, trials int) {
	t.Helper()
	k := AsCategoricalKernel(l)
	rng := rand.New(rand.NewSource(seed))
	nc := p.NumCats()
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		obs := make([]int, n)
		codes := make([]uint32, n)
		ws := make([]float64, n)
		for i := range obs {
			obs[i] = rng.Intn(nc)
			codes[i] = uint32(obs[i])
			ws[i] = math.Round(rng.Float64()*8) / 4
		}
		if trial%5 == 0 {
			for i := range ws {
				ws[i] = 0 // zero total weight: unweighted fallback
			}
		}
		votes := make([]float64, nc)
		var storage []float64
		if k.NeedsDist() {
			storage = make([]float64, nc)
		}
		// Seed the scratch with garbage: kernels must fully overwrite.
		for i := range votes {
			votes[i] = math.NaN()
		}
		for i := range storage {
			storage[i] = math.NaN()
		}
		wantTruth, wantDist := l.Truth(obs, ws, p)
		gotTruth, gotDist := k.TruthCodes(codes, ws, votes, storage, p)
		if gotTruth != wantTruth {
			t.Fatalf("trial %d: TruthCodes %d, Truth %d (obs=%v ws=%v)", trial, gotTruth, wantTruth, obs, ws)
		}
		if (gotDist == nil) != (wantDist == nil) || len(gotDist) != len(wantDist) {
			t.Fatalf("trial %d: TruthCodes dist %v, Truth dist %v", trial, gotDist, wantDist)
		}
		for i := range wantDist {
			if !bitsEqual(wantDist[i], gotDist[i]) {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, i, gotDist[i], wantDist[i])
			}
		}
		if k.NeedsDist() && &gotDist[0] != &storage[0] {
			t.Fatalf("trial %d: a NeedsDist kernel must return its storage", trial)
		}
	}
}

func TestContinuousKernelBitIdentity(t *testing.T) {
	for _, b := range continuousBuiltins() {
		if b.native {
			t.Run(b.l.Name(), func(t *testing.T) { checkContinuousKernel(t, b.l, 7, 500) })
		}
	}
}

func TestCategoricalKernelBitIdentity(t *testing.T) {
	p := catProp(t, "a", "b", "c", "d", "e")
	for _, b := range categoricalBuiltins() {
		if b.native {
			t.Run(b.l.Name(), func(t *testing.T) { checkCategoricalKernel(t, b.l, p, 11, 500) })
		}
	}
}

// TestKernelInterfaceCoverage pins which built-in losses implement their
// kernel themselves — the defaults must, since the solver's
// zero-allocation guarantee rests on them — and requires every built-in,
// with its own kernel or through the adapter, to be bit-identical to its
// public Truth.
func TestKernelInterfaceCoverage(t *testing.T) {
	for _, b := range continuousBuiltins() {
		_, adapted := AsContinuousKernel(b.l).(continuousAdapter)
		if adapted == b.native {
			t.Errorf("%s: native kernel %t, want %t", b.l.Name(), !adapted, b.native)
		}
		checkContinuousKernel(t, b.l, 13, 200)
	}
	p := catProp(t, "B12", "B-12", "C7", "gate 4", "")
	for _, b := range categoricalBuiltins() {
		_, adapted := AsCategoricalKernel(b.l).(categoricalAdapter)
		if adapted == b.native {
			t.Errorf("%s: native kernel %t, want %t", b.l.Name(), !adapted, b.native)
		}
		checkCategoricalKernel(t, b.l, p, 17, 200)
	}
}
