package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/synth"
)

// TestResolveHammerSharedPool floods a server whose solver pool is
// deliberately smaller than the request concurrency with resolves over
// several datasets at once. Every response must match, truth for truth,
// the answer a strictly sequential server (SolverWorkers: 1, cold cache)
// gives for the same request — the per-request worker budgeting and pool
// sharing must affect throughput only, never results. Run under the race
// detector by `make racehammer`.
func TestResolveHammerSharedPool(t *testing.T) {
	pooled, err := New(Config{SolverWorkers: 2, Decay: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, pooled)
	ts := httptest.NewServer(pooled.Handler())
	t.Cleanup(ts.Close)

	sequential, err := New(Config{SolverWorkers: 1, Decay: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, sequential)
	ref := httptest.NewServer(sequential.Handler())
	t.Cleanup(ref.Close)

	const datasets = 3
	for i := 0; i < datasets; i++ {
		d, _ := synth.Weather(synth.WeatherConfig{Seed: int64(40 + i), Cities: 12, Days: 15})
		var buf bytes.Buffer
		if err := data.Encode(&buf, d, nil); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", i)
		mustCreate(t, ts.URL, name, buf.String())
		mustCreate(t, ref.URL, name, buf.String())
	}
	bodies := []string{`{}`, `{"options":{"weights":"exp-sum"}}`}

	// Sequential references first, so the hammer compares against
	// answers computed with no pool sharing at all.
	want := make(map[string]ResolveResponse)
	for i := 0; i < datasets; i++ {
		for _, body := range bodies {
			var env struct{ ResolveResponse }
			url := fmt.Sprintf("%s/v1/datasets/d%d/resolve", ref.URL, i)
			if code := doJSON(t, "POST", url, strings.NewReader(body), &env); code != 200 {
				t.Fatalf("reference resolve d%d: status %d", i, code)
			}
			want[fmt.Sprintf("d%d|%s", i, body)] = env.ResolveResponse
		}
	}

	const clients = 12
	const rounds = 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % datasets
				body := bodies[(c+r)%len(bodies)]
				var env struct{ ResolveResponse }
				url := fmt.Sprintf("%s/v1/datasets/d%d/resolve", ts.URL, i)
				if code := doJSON(t, "POST", url, strings.NewReader(body), &env); code != 200 {
					t.Errorf("client %d round %d: status %d", c, r, code)
					return
				}
				w := want[fmt.Sprintf("d%d|%s", i, body)]
				if !reflect.DeepEqual(env.Truths, w.Truths) {
					t.Errorf("client %d round %d: truths diverged from sequential reference", c, r)
					return
				}
				if !reflect.DeepEqual(env.Weights, w.Weights) {
					t.Errorf("client %d round %d: weights diverged from sequential reference", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
