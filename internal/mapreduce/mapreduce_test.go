package mapreduce

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/eval"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/synth"
)

// wordCount is the canonical engine smoke test.
func TestEngineWordCount(t *testing.T) {
	input := []Record{"a b a", "c a", "b"}
	job := Job{
		Name: "wordcount",
		Map: func(rec Record, emit func(KV)) {
			for _, w := range strings.Fields(rec.(string)) {
				emit(KV{Key: w, Value: 1})
			}
		},
		Combine: func(_ string, values []any) []any {
			n := 0
			for _, v := range values {
				n += v.(int)
			}
			return []any{n}
		},
		Reduce: func(key string, values []any, emit func(KV)) {
			n := 0
			for _, v := range values {
				n += v.(int)
			}
			emit(KV{Key: key, Value: n})
		},
		NumMappers:  2,
		NumReducers: 3,
	}
	out, st, err := Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value.(int)
	}
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if st.InputRecords != 3 || st.MapOutput != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// The combiner must shrink the shuffle: 6 map outputs but at most
	// one pair per (mapper, key).
	if st.ShuffledPairs >= st.MapOutput {
		t.Fatalf("combiner did not reduce shuffle: %d >= %d", st.ShuffledPairs, st.MapOutput)
	}
	if st.ReduceKeys != 3 || st.OutputPairs != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineRequiresMapAndReduce(t *testing.T) {
	if _, _, err := Run(Job{}, nil); err == nil {
		t.Fatal("expected error for empty job")
	}
}

func TestEngineEmptyInput(t *testing.T) {
	job := Job{
		Map:    func(rec Record, emit func(KV)) {},
		Reduce: func(key string, values []any, emit func(KV)) {},
	}
	out, st, err := Run(job, nil)
	if err != nil || len(out) != 0 || st.InputRecords != 0 {
		t.Fatalf("empty input: out=%v st=%+v err=%v", out, st, err)
	}
}

func TestEngineDeterministicOrder(t *testing.T) {
	var input []Record
	for i := 0; i < 500; i++ {
		input = append(input, i)
	}
	job := Job{
		Map: func(rec Record, emit func(KV)) {
			i := rec.(int)
			emit(KV{Key: "k" + strconv.Itoa(i%17), Value: i})
		},
		Reduce: func(key string, values []any, emit func(KV)) {
			sum := 0
			for _, v := range values {
				sum += v.(int)
			}
			emit(KV{Key: key, Value: sum})
		},
		NumMappers:  7,
		NumReducers: 5,
	}
	out1, _, err := Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != len(out2) {
		t.Fatal("lengths differ")
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("output order differs at %d: %v vs %v", i, out1[i], out2[i])
		}
	}
}

// TestEngineMatchesSequential property-checks the engine against a
// sequential reference for a summing job.
func TestEngineMatchesSequential(t *testing.T) {
	var input []Record
	for i := 0; i < 1000; i++ {
		input = append(input, i)
	}
	want := map[string]int{}
	for i := 0; i < 1000; i++ {
		want["k"+strconv.Itoa(i%13)] += i
	}
	for _, mappers := range []int{1, 3, 16} {
		for _, reducers := range []int{1, 4, 25} {
			job := Job{
				Map: func(rec Record, emit func(KV)) {
					i := rec.(int)
					emit(KV{Key: "k" + strconv.Itoa(i%13), Value: i})
				},
				Combine: func(_ string, values []any) []any {
					sum := 0
					for _, v := range values {
						sum += v.(int)
					}
					return []any{sum}
				},
				Reduce: func(key string, values []any, emit func(KV)) {
					sum := 0
					for _, v := range values {
						sum += v.(int)
					}
					emit(KV{Key: key, Value: sum})
				},
				NumMappers:  mappers,
				NumReducers: reducers,
			}
			out, _, err := Run(job, input)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, kv := range out {
				got[kv.Key] = kv.Value.(int)
			}
			if len(got) != len(want) {
				t.Fatalf("m=%d r=%d: %d keys, want %d", mappers, reducers, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("m=%d r=%d key %s: %d, want %d", mappers, reducers, k, got[k], v)
				}
			}
		}
	}
}

func TestTuples(t *testing.T) {
	b := data.NewBuilder()
	b.ObserveFloat("s1", "o", "x", 1)
	b.ObserveFloat("s2", "o", "x", 2)
	b.ObserveCat("s1", "o", "c", "v")
	d := b.Build()
	recs := Tuples(d)
	if len(recs) != 3 {
		t.Fatalf("%d tuples, want 3", len(recs))
	}
	for _, r := range recs {
		tp := r.(Tuple)
		if !d.HasEntry(int(tp.SID), int(tp.EID)) {
			t.Fatal("tuple references missing observation")
		}
	}
}

// TestParallelMatchesSerial is the key equivalence test: parallel CRH must
// produce the same truths as the serial solver on mixed-type data.
func TestParallelMatchesSerial(t *testing.T) {
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 51, Cities: 6, Days: 10})
	serial, err := core.Run(d, core.Config{MaxIters: 6, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(d, ParallelConfig{Core: core.Config{MaxIters: 7, Tol: -1}, Reducers: 5})
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for e := 0; e < d.NumEntries(); e++ {
		sv, sok := serial.Truths.Get(e)
		pv, pok := par.Truths.Get(e)
		if sok != pok {
			t.Fatalf("entry %d presence differs", e)
		}
		if !sok {
			continue
		}
		checked++
		if d.Prop(d.EntryProp(e)).Type == data.Categorical {
			if sv.C != pv.C {
				t.Fatalf("entry %d categorical truth differs: %d vs %d", e, sv.C, pv.C)
			}
		} else if math.Abs(sv.F-pv.F) > 1e-9 {
			t.Fatalf("entry %d continuous truth differs: %v vs %v", e, sv.F, pv.F)
		}
	}
	if checked == 0 {
		t.Fatal("nothing compared")
	}
	for k := range serial.Weights {
		if math.Abs(serial.Weights[k]-par.Weights[k]) > 1e-6 {
			t.Fatalf("weight %d differs: %v vs %v", k, serial.Weights[k], par.Weights[k])
		}
	}
	// Two jobs per iteration.
	if len(par.Jobs) != 2*par.Iterations && len(par.Jobs) != 2*par.Iterations-1 {
		t.Fatalf("%d jobs for %d iterations", len(par.Jobs), par.Iterations)
	}
	if par.SimulatedTime <= 0 || par.WallTime <= 0 {
		t.Fatal("times not recorded")
	}
}

func TestParallelQuality(t *testing.T) {
	d, gt := synth.Adult(synth.UCIConfig{Seed: 52, Rows: 300})
	par, err := RunParallel(d, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Evaluate(d, par.Truths, gt)
	if m.ErrorRate > 0.05 {
		t.Fatalf("parallel CRH error rate = %v on easy data", m.ErrorRate)
	}
	if m.MNAD > 0.4 {
		t.Fatalf("parallel CRH MNAD = %v", m.MNAD)
	}
}

func TestParallelRejectsSquaredProb(t *testing.T) {
	d, _ := synth.Adult(synth.UCIConfig{Seed: 53, Rows: 10})
	for _, l := range []loss.Categorical{loss.SquaredProb{}, &loss.SquaredProb{}} {
		_, err := RunParallel(d, ParallelConfig{Core: core.Config{CategoricalLoss: l}})
		if err == nil {
			t.Fatalf("expected rejection of probabilistic loss %T", l)
		}
	}
}

func TestParallelEmptyDataset(t *testing.T) {
	if _, err := RunParallel(data.NewBuilder().Build(), ParallelConfig{}); err != core.ErrEmptyDataset {
		t.Fatalf("err = %v", err)
	}
}

func TestKeyCodecs(t *testing.T) {
	for _, e := range []int{0, 5, 999999999999} {
		if got := parseEntryKey(entryKey(e)); got != e {
			t.Fatalf("entry key round trip: %d -> %d", e, got)
		}
	}
	for _, kc := range [][2]int{{0, 0}, {54, 15}, {999999, 999999}} {
		k, m := parseSrcPropKey(srcPropKey(kc[0], kc[1]))
		if k != kc[0] || m != kc[1] {
			t.Fatalf("srcProp key round trip: %v -> %d,%d", kc, k, m)
		}
	}
	// Fixed-width keys sort numerically.
	if !(entryKey(2) < entryKey(10)) {
		t.Fatal("entry keys must sort numerically")
	}
}

func TestClusterModelShapes(t *testing.T) {
	model := DefaultCluster()
	// Monotone in observations.
	small := &Stats{InputRecords: 1e4, ShuffledPairs: 1e4, Mappers: 8, Reducers: 10}
	big := &Stats{InputRecords: 1e7, ShuffledPairs: 1e7, Mappers: 8, Reducers: 10}
	ts, tb := model.EstimateJob(small), model.EstimateJob(big)
	if !(tb > ts) {
		t.Fatal("estimate not monotone in input size")
	}
	// Overhead floor: tiny jobs still cost at least the setup.
	if ts < model.JobSetup {
		t.Fatal("estimate below setup floor")
	}
	// Reducer sweep at a fixed large workload must be non-monotone with
	// an interior optimum (Figure 8's shape): few reducers serialize the
	// reduce phase, many reducers pay launch overhead.
	cost := func(r int) float64 {
		s := &Stats{InputRecords: 4e8, ShuffledPairs: 4e7, Mappers: 8, Reducers: r}
		return model.EstimateJob(s).Seconds()
	}
	c2, c10, c25 := cost(2), cost(10), cost(25)
	if !(c10 < c2) {
		t.Fatalf("10 reducers (%v) should beat 2 (%v)", c10, c2)
	}
	if !(c10 < c25) {
		t.Fatalf("10 reducers (%v) should beat 25 (%v)", c10, c25)
	}
}

// TestCombinerEquivalence: for an associative aggregation, running with
// and without the combiner must produce identical reducer output — the
// combiner only moves work, never changes results.
func TestCombinerEquivalence(t *testing.T) {
	var input []Record
	for i := 0; i < 800; i++ {
		input = append(input, i)
	}
	mapFn := func(rec Record, emit func(KV)) {
		i := rec.(int)
		emit(KV{Key: "k" + strconv.Itoa(i%11), Value: i})
	}
	reduceFn := func(key string, values []any, emit func(KV)) {
		sum := 0
		for _, v := range values {
			sum += v.(int)
		}
		emit(KV{Key: key, Value: sum})
	}
	combineFn := func(_ string, values []any) []any {
		sum := 0
		for _, v := range values {
			sum += v.(int)
		}
		return []any{sum}
	}
	plain, stPlain, err := Run(Job{Map: mapFn, Reduce: reduceFn, NumMappers: 6, NumReducers: 3}, input)
	if err != nil {
		t.Fatal(err)
	}
	combined, stComb, err := Run(Job{Map: mapFn, Combine: combineFn, Reduce: reduceFn, NumMappers: 6, NumReducers: 3}, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(combined) {
		t.Fatal("output sizes differ")
	}
	for i := range plain {
		if plain[i] != combined[i] {
			t.Fatalf("output %d differs: %v vs %v", i, plain[i], combined[i])
		}
	}
	if !(stComb.ShuffledPairs < stPlain.ShuffledPairs) {
		t.Fatalf("combiner did not shrink the shuffle: %d vs %d", stComb.ShuffledPairs, stPlain.ShuffledPairs)
	}
}

func TestClusterEstimateSums(t *testing.T) {
	model := DefaultCluster()
	a := &Stats{InputRecords: 1000, ShuffledPairs: 1000, Mappers: 2, Reducers: 4}
	b := &Stats{InputRecords: 5000, ShuffledPairs: 100, Mappers: 2, Reducers: 4}
	if model.Estimate([]*Stats{a, b}) != model.EstimateJob(a)+model.EstimateJob(b) {
		t.Fatal("Estimate must sum job estimates")
	}
	// Zero-value guards.
	zero := ClusterModel{}
	if d := zero.EstimateJob(&Stats{InputRecords: 10}); d < 0 {
		t.Fatal("zero model produced negative duration")
	}
}

// TestParallelWithPropertyGroupsRejected documents that grouped weights
// are a batch-solver feature: the MapReduce weight job keys by
// (source, property) and the driver combines globally.
func TestParallelRunsWithCATD(t *testing.T) {
	// CATD is a plain Scheme from the driver's perspective (counts are
	// not routed through the MapReduce path), so the fusion must still
	// work and produce sane weights.
	d, _ := synth.Adult(synth.UCIConfig{Seed: 60, Rows: 100})
	res, err := RunParallel(d, ParallelConfig{Core: core.Config{Scheme: reg.CATD{}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Weights {
		if math.IsNaN(w) || w < 0 {
			t.Fatalf("bad weight %v", w)
		}
	}
}
