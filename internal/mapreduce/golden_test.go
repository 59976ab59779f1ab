package mapreduce

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crhkit/crh/internal/core"
	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the parallel-CRH golden files from the current implementation")

// TestGoldenBitIdentity pins the MapReduce fusion end to end: truths,
// weights and the iteration count are stored as Float64bits and compared
// byte for byte. The task pools are sized explicitly: the combiner sums
// each mapper's partial errors, so the mapper count sets the summation
// order of the loss matrix. Regenerating the files is a semantic change.
func TestGoldenBitIdentity(t *testing.T) {
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 57, Cities: 6, Days: 10})
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"mr-default", core.Config{}},
		{"mr-catd", core.Config{Scheme: reg.CATD{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunParallel(d, ParallelConfig{Core: tc.cfg, Mappers: 3, Reducers: 2})
			if err != nil {
				t.Fatal(err)
			}
			dump := dumpParallel(d, res)
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if string(want) != dump {
				t.Fatalf("parallel CRH output diverged from committed golden: %s", firstDiff(string(want), dump))
			}
		})
	}
}

// dumpParallel renders a ParallelResult as one line per pinned quantity,
// floats as Float64bits. Timings are not pinned.
func dumpParallel(d *data.Dataset, res *ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations %d\n", res.Iterations)
	fmt.Fprintf(&b, "converged %t\n", res.Converged)
	fmt.Fprintf(&b, "jobs %d\n", len(res.Jobs))
	for k, w := range res.Weights {
		fmt.Fprintf(&b, "weight %d 0x%016x\n", k, math.Float64bits(w))
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
	return b.String()
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}
