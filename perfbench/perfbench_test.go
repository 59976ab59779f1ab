package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/crhkit/crh"
)

func TestQuantileTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, beyond := quantile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if m := median(xs); m != 50 {
		t.Fatalf("median of 1..100 = %v, want 50", m)
	}
	if xs[0] != 100 {
		t.Fatal("quantile reordered its input")
	}

	var ok, short tally
	tail90(&ok, "ops", xs)
	tail90(&short, "ops", xs[:99])
	if ok.Failed != 0 || short.Failed != 1 {
		t.Fatalf("tail90 failures: 100 samples %d, 99 samples %d; want 0 and 1", ok.Failed, short.Failed)
	}
	if _, beyond := quantile(nil, 0.9); beyond != 0 {
		t.Fatal("empty input has samples beyond its quantile")
	}
}

func TestStatsDelta(t *testing.T) {
	doc := func(hits, misses, solveN int64, solveMs float64) statsDoc {
		raw := fmt.Sprintf(`{"cache":{"hits":%d,"misses":%d,"hit_rate":0.5},`+
			`"stages":{"decode":{"count":%d,"sum_ms":%g},"solve":{"count":%d,"sum_ms":%g}},"runtime":{"goroutines":4}}`,
			hits, misses, hits+misses, float64(hits+misses)*0.5, solveN, solveMs)
		var d statsDoc
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	stages, hit := statsDelta(doc(10, 5, 5, 100), doc(40, 15, 15, 400))
	if hit != 0.75 {
		t.Errorf("hit ratio = %v, want 30/40", hit)
	}
	if stages["solve"] != 30 || stages["decode"] != 0.5 {
		t.Errorf("stage means = %v, want solve 30 and decode 0.5", stages)
	}
	if stages["encode"] != 0 || len(stages) != len(stageNames) {
		t.Errorf("untouched stages = %v, want every stage present and encode 0", stages)
	}
	if _, hit := statsDelta(doc(3, 3, 1, 1), doc(3, 3, 1, 1)); hit != 0 {
		t.Errorf("hit ratio with no lookups = %v, want 0", hit)
	}
}

func TestParseExposition(t *testing.T) {
	text := []byte("# HELP crh_stream_chunks_total I-CRH chunks processed\n" +
		"# TYPE crh_stream_chunks_total counter\n" +
		"crh_stream_chunks_total 225\n" +
		`crhd_stage_seconds_sum{stage="solve"} 1.5e-02` + "\n")
	got := parseExposition(text)
	want := map[string]float64{"crh_stream_chunks_total": 225, `crhd_stage_seconds_sum{stage="solve"}`: 0.015}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseExposition = %v, want %v", got, want)
	}
}

func TestStripFlags(t *testing.T) {
	rest, cached, ok := stripFlags([]byte(`{"cached":true,"coalesced":false,"dataset":"x"}`))
	if !ok || !cached || string(rest) != `,"dataset":"x"}` {
		t.Fatalf("stripFlags = %q %v %v", rest, cached, ok)
	}
	for _, bad := range []string{`{"dataset":"x"}`, `{"cached":true,"dataset":"x"}`, `{"cached":maybe,"coalesced":false,}`} {
		if _, _, ok := stripFlags([]byte(bad)); ok {
			t.Errorf("stripFlags accepted %s", bad)
		}
	}
}

// TestOpenLoopLateness drives the open loop against a server slower than
// the arrival rate: dispatch must fall behind the schedule, and latency,
// measured from the schedule, must include that wait.
func TestOpenLoopLateness(t *testing.T) {
	const service = 20 * time.Millisecond // 2 connections serve 100/s < readRate
	body := []byte(`{"cached":true,"coalesced":false,"x":1}`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		_, _ = w.Write(body) // a failed write fails the client's check
	}))
	defer srv.Close()
	c := newClient(srv.URL, readConns)
	defer c.tr.CloseIdleConnections()

	refs := make([][]byte, len(readVariants))
	for i := range refs {
		refs[i] = []byte(`,"x":1}`)
	}
	ph := &readPhase{}
	openLoop(c, refs, env{seed: 1, seconds: 0.1}, ph, nil)
	n := int(0.1 * readRate)
	if ph.Failed != 0 || len(ph.lat) != n {
		t.Fatalf("%d of %d requests failed (%v); %d latencies", ph.Failed, ph.Attempted, ph.Notes, len(ph.lat))
	}
	late, _ := quantile(ph.late, 0.9)
	if late < ms(service) {
		t.Errorf("late p90 = %vms, want at least one service time behind with the server overloaded", late)
	}
	for i := range ph.lat {
		if ph.lat[i] < ph.late[i]+ms(service)*0.9 {
			t.Fatalf("request %d: latency %vms does not include lateness %vms plus service", i, ph.lat[i], ph.late[i])
		}
	}
	if ph.opsPerSec > 1.1*float64(readConns)*float64(time.Second/service) {
		t.Errorf("ops/s = %v exceeds the server's capacity", ph.opsPerSec)
	}
}

func TestSeededRequestsRepeat(t *testing.T) {
	d, _ := crh.GenerateStock(crh.StockOptions{Seed: 1, Symbols: 3, Days: 2})
	a, err := makeBatches(d, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeBatches(d, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeBatches(d, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("batch %d differs between two runs with one seed", i)
		}
		if len(a[i].claims) != batchSize {
			t.Fatalf("batch %d has %d claims, want %d", i, len(a[i].claims), batchSize)
		}
		seen := map[string]bool{}
		for _, cl := range a[i].claims {
			key := cl.Source + "/" + cl.Object + "/" + cl.Property
			if seen[key] {
				t.Fatalf("batch %d claims %s twice", i, key)
			}
			seen[key] = true
		}
	}
	if bytes.Equal(a[0].body, c[0].body) {
		t.Fatal("different seeds gave the same first batch")
	}
	if !reflect.DeepEqual(readSchedule(3, 50), readSchedule(3, 50)) || reflect.DeepEqual(readSchedule(3, 50), readSchedule(4, 50)) {
		t.Fatal("read schedule does not follow its seed")
	}
}

// TestReplayMatchesDecode rebuilds a dataset from its flattened log and
// checks the solve is unchanged up to interning order: same claims,
// same truths by name.
func TestReplayMatchesDecode(t *testing.T) {
	d, _ := crh.GenerateStock(crh.StockOptions{Seed: 3, Symbols: 4, Days: 3})
	sc, log := absorbLog(d)
	r := buildLog(sc, log, 0)
	if r.NumObservations() != d.NumObservations() || r.NumObjects() != d.NumObjects() {
		t.Fatalf("rebuilt %d claims over %d objects, want %d over %d",
			r.NumObservations(), r.NumObjects(), d.NumObservations(), d.NumObjects())
	}
	res, err := crh.Run(r, crh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc := docOf(r, res)
	if n, differ, first := truthDiff(r, res, doc); differ != 0 || n == 0 {
		t.Fatalf("a result differs from itself: %d of %d (%v)", differ, n, first)
	}
	if maxRel, differ := weightDiff(r, res, doc); differ != 0 || maxRel != 0 {
		t.Fatalf("weights differ from themselves: %d, max %v", differ, maxRel)
	}
	doc.Weights[r.SourceName(0)] *= 1 + 1e-3
	doc.Truths = doc.Truths[1:]
	if _, differ, _ := truthDiff(r, res, doc); differ != 1 {
		t.Fatalf("a dropped truth counts as %d differences, want 1", differ)
	}
	if maxRel, differ := weightDiff(r, res, doc); differ != 1 || math.Abs(maxRel-1e-3) > 1e-6 {
		t.Fatalf("a scaled weight gives %d differences, max %v; want 1 and 1e-3", differ, maxRel)
	}
}

// docOf renders a result as crhd's resolve document would carry it.
func docOf(d *crh.Dataset, res *crh.Result) *resolveDoc {
	doc := &resolveDoc{Weights: map[string]float64{}}
	for e := 0; e < res.Truths.Len(); e++ {
		v, ok := res.Truths.Get(e)
		if !ok {
			continue
		}
		p := d.Prop(d.EntryProp(e))
		var raw []byte
		if p.Type == crh.Categorical {
			raw, _ = json.Marshal(p.CatName(int(v.C)))
		} else {
			raw, _ = json.Marshal(v.F)
		}
		doc.Truths = append(doc.Truths, truthDoc{Object: d.ObjectName(d.EntryObject(e)), Property: p.Name, Value: raw})
	}
	for k, w := range res.Weights {
		doc.Weights[d.SourceName(k)] = w
	}
	return doc
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric tables and
// the repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var cfg struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range cfg.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, cfg.EndToEnd)
	check("per_layer", layerMetrics, cfg.PerLayer)
}

func TestResultLineDeclaredMetricsOnly(t *testing.T) {
	rep := newReport()
	rep.check(true, "ok")
	for _, d := range e2eMetrics {
		rep.e2e[d.name] = 1
	}
	line, err := resultLine(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil || !r.Correct || r.Attempted != 1 || len(r.Metrics) != len(e2eMetrics) {
		t.Fatalf("result line %s (%v)", line, err)
	}
	if line, err := resultLine(rep, true); err != nil || !bytes.Contains(line, []byte(`"host.spin_ms":{"value":0`)) {
		t.Fatalf("traced line without layers: %s (%v); want every layer present at 0", line, err)
	}
	delete(rep.e2e, "setup_s")
	if _, err := resultLine(rep, false); err == nil {
		t.Fatal("a missing end-to-end metric was not reported")
	}
	rep.e2e["setup_s"], rep.e2e["bogus"] = 1, 1
	if _, err := resultLine(rep, false); err == nil {
		t.Fatal("an undeclared metric was not reported")
	}
}
