package core

import (
	"math"
	"testing"

	"github.com/crhkit/crh/internal/obs"
)

// TestTraceHook verifies the solver emits one record per iteration with
// the objective curve, phase timings, and weight summary, and that the
// final record carries the convergence flag.
func TestTraceHook(t *testing.T) {
	d, _ := planted(t, 5, 3, 5, 80)
	var recs []obs.IterationTrace
	res, err := Run(d, Config{Trace: obs.TraceFunc(func(r obs.IterationTrace) {
		recs = append(recs, r)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Iterations {
		t.Fatalf("got %d trace records for %d iterations", len(recs), res.Iterations)
	}
	for i, r := range recs {
		if r.Iteration != i+1 {
			t.Fatalf("record %d numbered %d", i, r.Iteration)
		}
		if math.Abs(r.Objective-res.Objective[i]) > 1e-12 {
			t.Fatalf("record %d objective %v != result objective %v", i, r.Objective, res.Objective[i])
		}
		if r.WeightPhase < 0 || r.TruthPhase < 0 || r.ObjectivePhase < 0 {
			t.Fatalf("record %d has negative phase times: %+v", i, r)
		}
		if r.Weights.Min > r.Weights.Max {
			t.Fatalf("record %d weight summary inverted: %+v", i, r.Weights)
		}
		if r.TruthChanges < 0 || r.TruthChanges > d.NumEntries() {
			t.Fatalf("record %d truth changes %d out of range", i, r.TruthChanges)
		}
	}
	last := recs[len(recs)-1]
	if last.Converged != res.Converged {
		t.Fatalf("final record converged=%v, result converged=%v", last.Converged, res.Converged)
	}
	// The first iteration moves truths away from the uniform-weight
	// initialization on this planted dataset.
	if recs[0].TruthChanges == 0 {
		t.Fatal("first iteration reported zero truth changes")
	}
	// Tracing must not perturb the solve: same dataset, no trace.
	plain, err := Run(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != res.Iterations {
		t.Fatalf("traced run took %d iterations, untraced %d", res.Iterations, plain.Iterations)
	}
	for i := range plain.Objective {
		if math.Abs(plain.Objective[i]-res.Objective[i]) > 1e-12 {
			t.Fatalf("objective diverged at iteration %d: %v vs %v", i, plain.Objective[i], res.Objective[i])
		}
	}
}

// TestTraceWeightSummaryGroups pins which weights the trace summarizes
// when property groups are configured: the first group's.
func TestTraceWeightSummaryGroups(t *testing.T) {
	d, _ := planted(t, 6, 2, 3, 40)
	var last obs.IterationTrace
	res, err := Run(d, Config{
		PropertyGroups: [][]int{{0}, {1}},
		Trace:          obs.TraceFunc(func(r obs.IterationTrace) { last = r }),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := obs.SummarizeWeights(res.GroupWeights[0])
	if math.Abs(last.Weights.Max-want.Max) > 1e-12 || math.Abs(last.Weights.Entropy-want.Entropy) > 1e-12 {
		t.Fatalf("trace summary %+v != first-group summary %+v", last.Weights, want)
	}
}

// TestTraceWorkers pins the per-phase worker counts: the weight phase
// runs no parallel region and reports 1, the truth phase — the
// iteration's one pass over the claims — reports the budget it engaged.
func TestTraceWorkers(t *testing.T) {
	d := synthesize(equivCase{"mixed", 2, 2, 6, 200, 0.2}, 46)
	if nsh := numShards(d.NumEntries()); nsh < 4 {
		t.Fatalf("dataset has %d shards, need at least 4", nsh)
	}
	for _, w := range []int{1, 4} {
		var recs []obs.IterationTrace
		if _, err := Run(d, Config{Workers: w, Trace: obs.TraceFunc(func(r obs.IterationTrace) {
			recs = append(recs, r)
		})}); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.WeightWorkers != 1 || r.TruthWorkers != w {
				t.Fatalf("workers=%d: iteration %d reports weight_workers=%d truth_workers=%d, want 1 and %d",
					w, r.Iteration, r.WeightWorkers, r.TruthWorkers, w)
			}
		}
	}
}
