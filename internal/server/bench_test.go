package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/synth"
)

// benchServer returns a server preloaded with a moderate mixed-type
// dataset (9 sources, continuous + categorical properties).
func benchServer(b *testing.B) *Server {
	b.Helper()
	d, _ := synth.Weather(synth.WeatherConfig{Seed: 42, Cities: 10, Days: 20})
	var buf bytes.Buffer
	if err := data.Encode(&buf, d, nil); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Decay: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.registry.Create("bench", &buf); err != nil {
		b.Fatal(err)
	}
	return s
}

// post issues one resolve through the handler stack (no network).
func post(b *testing.B, s *Server, body string) {
	req := httptest.NewRequest("POST", "/v1/datasets/bench/resolve", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkResolveCacheMiss measures a full computation + response per
// iteration: the cache is emptied each round, so every request is a miss.
// This is the server's worst-case hot path.
func BenchmarkResolveCacheMiss(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.cache = newResultCache(128)
		b.StartTimer()
		post(b, s, `{}`)
	}
}

// BenchmarkResolveCacheHit measures the O(1) repeated-query path: every
// request after the first is served from the LRU without touching the
// solver.
func BenchmarkResolveCacheHit(b *testing.B) {
	s := benchServer(b)
	post(b, s, `{}`) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, s, `{}`)
	}
}

// Concurrent benchmarks: one iteration = serving `fanout` simultaneous
// resolve requests on the same dataset version.
//
// The coalesced variant sends identical requests, so the inflight map
// collapses them to one computation. The uncoalesced variant defeats both
// the cache and the coalescer with distinct max_iters values far above
// the convergence point — every request costs a full computation of
// identical work, which is exactly what a server without coalescing would
// do for identical requests.
const fanout = 8

func BenchmarkConcurrentResolveCoalesced(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.cache = newResultCache(128) // force one fresh computation per round
		b.StartTimer()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(b, s, `{}`)
			}()
		}
		wg.Wait()
	}
}

func BenchmarkConcurrentResolveUncoalesced(b *testing.B) {
	s := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.cache = newResultCache(128)
		b.StartTimer()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				// Distinct keys, identical work: convergence stops the
				// solver long before 100+j iterations.
				post(b, s, fmt.Sprintf(`{"options":{"max_iters":%d}}`, 100+j))
			}(j)
		}
		wg.Wait()
	}
}

// BenchmarkEncodeResolveBody measures the once-per-computation body
// encode (pooled append encoder) against BenchmarkEncodeStdlib, the
// reflection-based encoding/json path it replaced.
func BenchmarkEncodeResolveBody(b *testing.B) {
	resp := benchResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encodeResolveBody(resp)
	}
}

func BenchmarkEncodeStdlib(b *testing.B) {
	resp := benchResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stdlibJSON(resolveEnvelope{ResolveResponse: resp}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResponse computes one real response over the bench dataset.
func benchResponse(b *testing.B) *ResolveResponse {
	b.Helper()
	s := benchServer(b)
	e, _ := s.registry.Get("bench")
	req := &ResolveRequest{}
	req.normalize()
	resp, err := compute("bench", e.Snapshot(), req, nil, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return resp
}

// BenchmarkIngest measures the live-ingest path: validate, append to the
// log, rebuild the snapshot, and advance the warm I-CRH state.
func BenchmarkIngest(b *testing.B) {
	s := benchServer(b)
	e, _ := s.registry.Get("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := fmt.Sprintf("obj-%d", i)
		_, err := e.Ingest([]Observation{
			{Source: "src-a", Object: obj, Property: "high_temp", Value: num(70)},
			{Source: "src-b", Object: obj, Property: "high_temp", Value: num(75)},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
