package stream

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
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
	"github.com/crhkit/crh/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the I-CRH golden files from the current implementation")

// TestGoldenBitIdentity pins I-CRH end to end: every chunk's truths and
// the weight trajectory are stored as Float64bits and compared byte for
// byte, at several worker budgets. Regenerating the files is a semantic
// change.
func TestGoldenBitIdentity(t *testing.T) {
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 43, Cities: 8, Days: 12})
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"icrh-default", core.Config{}},
		{"icrh-squaredprob-expsum", core.Config{CategoricalLoss: loss.SquaredProb{}, Scheme: reg.ExpSum{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dump string
			for _, w := range []int{1, 2, 8} {
				cfg := tc.cfg
				cfg.Workers = w
				res, err := Run(d, 3, Config{Core: cfg, Decay: 0.8})
				if err != nil {
					t.Fatal(err)
				}
				got := dumpStream(d, res)
				if w == 1 {
					dump = got
				} else if got != dump {
					t.Fatalf("workers=%d diverged from workers=1", w)
				}
			}
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
				t.Fatalf("I-CRH output diverged from committed golden: %s", firstDiff(string(want), dump))
			}
		})
	}
}

// dumpStream renders a streaming Result as one line per pinned quantity,
// floats as Float64bits.
func dumpStream(d *data.Dataset, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chunks %d\n", res.ChunkCount)
	for c, ws := range res.History {
		for k, w := range ws {
			fmt.Fprintf(&b, "history %d %d 0x%016x\n", c, k, math.Float64bits(w))
		}
	}
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
