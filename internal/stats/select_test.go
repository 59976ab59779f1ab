package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// medianBuf is WeightedMedianBuf with fresh scratch.
func medianBuf(xs, ws []float64) float64 {
	return WeightedMedianBuf(xs, ws, make([]float64, len(xs)), make([]float64, len(xs)))
}

// TestWeightedMedianBufMatchesReference is the central correctness check:
// quickselect must agree with the sort-based reference on every input,
// including ties, zero weights, and sorted/reversed orders.
func TestWeightedMedianBufMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(8)) // heavy ties
			ws[i] = rng.Float64()
			if rng.Intn(6) == 0 {
				ws[i] = 0
			}
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := WeightedMedian(xs, ws)
		got := medianBuf(xs, ws)
		if got != want {
			t.Fatalf("trial %d: buf=%v want=%v xs=%v ws=%v", trial, got, want, xs, ws)
		}
	}
}

func TestWeightedMedianBufDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	ws := []float64{1, 2, 3, 4, 5}
	medianBuf(xs, ws)
	if xs[0] != 5 || ws[0] != 1 || xs[4] != 4 || ws[4] != 5 {
		t.Fatalf("inputs mutated: %v %v", xs, ws)
	}
}

func TestWeightedMedianBufEdgeCases(t *testing.T) {
	if got := medianBuf(nil, nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := medianBuf([]float64{7}, []float64{2}); got != 7 {
		t.Fatalf("single = %v", got)
	}
	if got := medianBuf([]float64{1, 2, 3}, []float64{0, 0, 0}); got != 2 {
		t.Fatalf("all-zero weights = %v", got)
	}
	// All values identical.
	if got := medianBuf([]float64{4, 4, 4, 4}, []float64{1, 2, 3, 4}); got != 4 {
		t.Fatalf("constant = %v", got)
	}
}

func TestWeightedMedianBufPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedMedianBuf([]float64{1}, []float64{1, 2}, make([]float64, 2), make([]float64, 2))
}

// TestWeightedMedianBufQuick re-verifies the Eq(16) property directly.
func TestWeightedMedianBufQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		xs := make([]float64, len(raw))
		ws := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			xs[i] = float64(r % 13)
			ws[i] = float64(r%5) + 0.25
			total += ws[i]
		}
		m := medianBuf(xs, ws)
		var below, above float64
		for i := range xs {
			if xs[i] < m {
				below += ws[i]
			} else if xs[i] > m {
				above += ws[i]
			}
		}
		return below < total/2+1e-12 && above <= total/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWeightedMedianSort(b *testing.B) {
	xs, ws := benchMedianData(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedian(xs, ws)
	}
}

func benchMedianData(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ws[i] = rng.Float64()
	}
	return xs, ws
}

// TestWeightedMedianBufBitIdentity: the result must not depend on what
// the scratch held before — the same bits as with fresh scratch — on the
// coarse duplicate-heavy inputs with negative weights that trigger the
// numerical-tie fallback, and the inputs must not be modified.
func TestWeightedMedianBufBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(16)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64() * 3)
			ws[i] = math.Round(rng.Float64()*8) / 4
			if rng.Intn(9) == 0 {
				ws[i] = -ws[i] // negative weights are clamped to zero
			}
		}
		if trial%11 == 0 {
			for i := range ws {
				ws[i] = 0
			}
		}
		origX := append([]float64(nil), xs...)
		origW := append([]float64(nil), ws...)
		want := medianBuf(xs, ws)
		vbuf := make([]float64, n)
		wbuf := make([]float64, n)
		for i := range vbuf {
			vbuf[i], wbuf[i] = math.NaN(), math.NaN() // scratch contents must not matter
		}
		got := WeightedMedianBuf(xs, ws, vbuf, wbuf)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: NaN scratch %v, fresh scratch %v (xs=%v ws=%v)", trial, got, want, xs, ws)
		}
		for i := range xs {
			if xs[i] != origX[i] || ws[i] != origW[i] {
				t.Fatalf("trial %d: inputs modified", trial)
			}
		}
	}
}

// TestWeightedMedianBufAllocFree pins the point of the variant: with
// caller scratch the median computation performs zero allocations.
func TestWeightedMedianBufAllocFree(t *testing.T) {
	xs, ws := benchMedianData(64)
	vbuf := make([]float64, len(xs))
	wbuf := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(100, func() {
		WeightedMedianBuf(xs, ws, vbuf, wbuf)
	})
	if allocs != 0 {
		t.Fatalf("WeightedMedianBuf allocates %.0f objects per call, want 0", allocs)
	}
}

func BenchmarkWeightedMedianBuf(b *testing.B) {
	xs, ws := benchMedianData(64)
	vbuf := make([]float64, len(xs))
	wbuf := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WeightedMedianBuf(xs, ws, vbuf, wbuf)
	}
}
