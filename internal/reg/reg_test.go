package reg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpSumOrdering(t *testing.T) {
	ws := ExpSum{}.Weights([]float64{1, 2, 4})
	if len(ws) != 3 {
		t.Fatal("length")
	}
	if !(ws[0] > ws[1] && ws[1] > ws[2]) {
		t.Fatalf("weights %v should strictly decrease with loss", ws)
	}
	// Closed form: w_k = −log(L_k / ΣL).
	want := -math.Log(1.0 / 7.0)
	if math.Abs(ws[0]-want) > 1e-9 {
		t.Fatalf("ws[0] = %v, want %v", ws[0], want)
	}
}

func TestExpMaxOrdering(t *testing.T) {
	ws := ExpMax{}.Weights([]float64{1, 2, 4})
	if !(ws[0] > ws[1] && ws[1] > ws[2]) {
		t.Fatalf("weights %v should strictly decrease with loss", ws)
	}
	// Worst source gets exactly 0 under max normalization.
	if ws[2] != 0 {
		t.Fatalf("worst-source weight = %v, want 0", ws[2])
	}
	// w_0 = −log(1/4).
	if math.Abs(ws[0]-math.Log(4)) > 1e-9 {
		t.Fatalf("ws[0] = %v, want log4", ws[0])
	}
}

func TestExpMaxSpreadsMoreThanExpSum(t *testing.T) {
	losses := []float64{1, 2, 4, 8}
	sum := ExpSum{}.Weights(losses)
	max := ExpMax{}.Weights(losses)
	spread := func(ws []float64) float64 {
		lo, hi := ws[0], ws[0]
		for _, w := range ws {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		if hi == 0 {
			return 0
		}
		return (hi - lo) / hi
	}
	if !(spread(max) > spread(sum)) {
		t.Fatalf("max-normalized relative spread %v should exceed sum-normalized %v", spread(max), spread(sum))
	}
}

func TestZeroLossGuards(t *testing.T) {
	for _, s := range []Scheme{ExpSum{}, ExpMax{}} {
		// A perfect source must get a large finite weight.
		ws := s.Weights([]float64{0, 1})
		if math.IsInf(ws[0], 0) || math.IsNaN(ws[0]) {
			t.Fatalf("%s: perfect-source weight = %v", s.Name(), ws[0])
		}
		if !(ws[0] > ws[1]) {
			t.Fatalf("%s: perfect source should outrank lossy one: %v", s.Name(), ws)
		}
		// All-zero losses: uniform positive weights.
		ws = s.Weights([]float64{0, 0, 0})
		for _, w := range ws {
			if w != 1 {
				t.Fatalf("%s: all-zero weights = %v, want all 1", s.Name(), ws)
			}
		}
	}
}

func TestSchemesNonNegativeFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schemes := []Scheme{ExpSum{}, ExpMax{}, BestSource{}, TopJ{J: 2}}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		losses := make([]float64, n)
		for i := range losses {
			if rng.Intn(5) == 0 {
				losses[i] = 0
			} else {
				losses[i] = rng.Float64() * 10
			}
		}
		for _, s := range schemes {
			ws := s.Weights(losses)
			if len(ws) != n {
				t.Fatalf("%s: wrong length", s.Name())
			}
			for _, w := range ws {
				if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
					t.Fatalf("%s: bad weight %v for losses %v", s.Name(), w, losses)
				}
			}
		}
	}
}

func TestBestSource(t *testing.T) {
	ws := BestSource{}.Weights([]float64{3, 1, 2})
	if ws[1] != 1 || ws[0] != 0 || ws[2] != 0 {
		t.Fatalf("BestSource weights = %v", ws)
	}
	if ws := (BestSource{}).Weights(nil); len(ws) != 0 {
		t.Fatal("empty input")
	}
}

func TestTopJ(t *testing.T) {
	ws := TopJ{J: 2}.Weights([]float64{3, 1, 2, 9})
	want := []float64{0, 1, 1, 0}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("TopJ{2} = %v, want %v", ws, want)
		}
	}
	// J clamped to [1, K].
	ws = TopJ{J: 0}.Weights([]float64{5, 1})
	if ws[0] != 0 || ws[1] != 1 {
		t.Fatalf("TopJ{0} = %v, want single best", ws)
	}
	ws = TopJ{J: 99}.Weights([]float64{5, 1})
	if ws[0] != 1 || ws[1] != 1 {
		t.Fatalf("TopJ{99} = %v, want all selected", ws)
	}
}

// TestMonotoneQuick property-tests that both log schemes are monotone:
// lower loss never yields lower weight.
func TestMonotoneQuick(t *testing.T) {
	for _, s := range []Scheme{ExpSum{}, ExpMax{}} {
		f := func(raw []uint8) bool {
			if len(raw) < 2 {
				return true
			}
			if len(raw) > 10 {
				raw = raw[:10]
			}
			losses := make([]float64, len(raw))
			for i, r := range raw {
				losses[i] = float64(r) / 16
			}
			ws := s.Weights(losses)
			for i := range losses {
				for j := range losses {
					if losses[i] < losses[j] && ws[i] < ws[j]-1e-12 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestNames(t *testing.T) {
	if (ExpSum{}).Name() == "" || (ExpMax{}).Name() == "" || (BestSource{}).Name() == "" || (TopJ{}).Name() == "" {
		t.Error("schemes must be named")
	}
}

// TestWeightsIntoBitIdentity: every built-in scheme, and any other
// Scheme through the AsKernel adapter, must write exactly the bits its
// Weights returns when counts are nil, whatever garbage the destination
// held; CATD with unit counts must match nil counts.
func TestWeightsIntoBitIdentity(t *testing.T) {
	kernels := []Kernel{ExpMax{}, ExpSum{}, BestSource{}, TopJ{J: 2}, CATD{}, AsKernel(reversed{})}
	rng := rand.New(rand.NewSource(3))
	for _, s := range kernels {
		for trial := 0; trial < 500; trial++ {
			k := 1 + rng.Intn(12)
			losses := make([]float64, k)
			for i := range losses {
				losses[i] = math.Round(rng.Float64()*16) / 4
			}
			if trial%6 == 0 {
				for i := range losses {
					losses[i] = 0 // all-agree path: uniform weights
				}
			}
			want := s.Weights(losses)
			dst := make([]float64, k)
			for i := range dst {
				dst[i] = math.NaN()
			}
			s.WeightsInto(dst, losses, nil)
			requireBits(t, s.Name(), trial, want, dst, losses)
		}
	}
	losses := []float64{0.5, 1.25, 0.75, 2, 0.1, 0.9}
	ones := []int{1, 1, 1, 1, 1, 1}
	dst := make([]float64, len(losses))
	CATD{}.WeightsInto(dst, losses, ones)
	requireBits(t, "catd/unit-counts", 0, CATD{}.Weights(losses), dst, losses)
}

func requireBits(t *testing.T, name string, trial int, want, got, losses []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s trial %d: dst[%d] = %v, want %v (losses=%v)", name, trial, i, got[i], want[i], losses)
		}
	}
}

// reversed is a test-only Scheme without WeightsInto: the adapter path.
type reversed struct{}

func (reversed) Name() string { return "test-reversed" }

func (reversed) Weights(losses []float64) []float64 {
	ws := make([]float64, len(losses))
	for k, l := range losses {
		ws[k] = 1 / (1 + l)
	}
	return ws
}

// TestAsKernel: a built-in scheme is its own kernel; any other Scheme is
// wrapped and keeps its name.
func TestAsKernel(t *testing.T) {
	if k := AsKernel(ExpMax{}); k != (ExpMax{}) {
		t.Fatalf("AsKernel(ExpMax{}) = %#v, want the scheme itself", k)
	}
	if k := AsKernel(reversed{}); k.Name() != "test-reversed" {
		t.Fatalf("adapted name %q", k.Name())
	}
}

// TestWeightsIntoAllocFree pins the zero-allocation contract of the
// solver's weight update for the built-in schemes.
func TestWeightsIntoAllocFree(t *testing.T) {
	losses := []float64{0.5, 1.25, 0.75, 2, 0.1, 0.9}
	counts := []int{3, 40, 7, 12, 1, 9}
	dst := make([]float64, len(losses))
	for _, s := range []Kernel{ExpMax{}, ExpSum{}, BestSource{}, TopJ{J: 3}, CATD{}} {
		allocs := testing.AllocsPerRun(100, func() {
			s.WeightsInto(dst, losses, counts)
		})
		if allocs != 0 {
			t.Fatalf("%s.WeightsInto allocates %.0f objects per call, want 0", s.Name(), allocs)
		}
	}
}
