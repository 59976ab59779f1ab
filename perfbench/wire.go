package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/crhkit/crh"
)

// claim is one observation of an ingest batch, in crhd's JSON shape.
// Value is a float64 (continuous) or a string (categorical).
type claim struct {
	Source   string `json:"source"`
	Object   string `json:"object"`
	Property string `json:"property"`
	Value    any    `json:"value"`
}

// batch is one ingest request: its claims and its encoded body.
type batch struct {
	claims []claim
	body   []byte
}

const (
	// batchSize is the number of claims per ingest batch.
	batchSize = 50
	// claimsPerNewObject is how many claims each new object gets.
	claimsPerNewObject = 5
)

// makeBatches generates n seeded ingest batches over d. In each, half
// the claims re-claim existing entries (a random source repeats a value
// some source already claimed there) and half introduce new objects,
// each copying claims from a random existing object. No batch holds two
// claims with the same (source, object, property).
func makeBatches(d *crh.Dataset, seed int64, n int) ([]batch, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]batch, n)
	for c := range out {
		var claims []claim
		seen := map[string]bool{}
		add := func(k, i int, obj string, m int) bool {
			v, ok := pickClaim(rng, d, d.Entry(i, m))
			key := d.SourceName(k) + "\x00" + obj + "\x00" + d.Prop(m).Name
			if !ok || seen[key] {
				return false
			}
			seen[key] = true
			claims = append(claims, claim{Source: d.SourceName(k), Object: obj, Property: d.Prop(m).Name, Value: v})
			return true
		}
		for tries := 0; len(claims) < batchSize/2; tries++ {
			if tries > 100*batchSize {
				return nil, fmt.Errorf("batch %d: too few claimed entries to re-claim", c)
			}
			i, m, k := rng.Intn(d.NumObjects()), rng.Intn(d.NumProps()), rng.Intn(d.NumSources())
			add(k, i, d.ObjectName(i), m)
		}
		for j := 0; len(claims) < batchSize; j++ {
			obj := fmt.Sprintf("new%04d/o%d", c, j)
			tmpl := rng.Intn(d.NumObjects())
			for got, tries := 0, 0; got < claimsPerNewObject && len(claims) < batchSize; tries++ {
				if tries > 100*claimsPerNewObject {
					return nil, fmt.Errorf("batch %d: template object %d has too few claims", c, tmpl)
				}
				if add(rng.Intn(d.NumSources()), tmpl, obj, rng.Intn(d.NumProps())) {
					got++
				}
			}
		}
		body, err := json.Marshal(struct {
			Observations []claim `json:"observations"`
		}{claims})
		if err != nil {
			return nil, err
		}
		out[c] = batch{claims: claims, body: body}
	}
	return out, nil
}

// pickClaim returns the value of a random existing claim on entry e:
// a float64 for a continuous property, the category name otherwise.
func pickClaim(rng *rand.Rand, d *crh.Dataset, e int) (any, bool) {
	var vals []crh.Value
	d.ForEntry(e, func(_ int, v crh.Value) { vals = append(vals, v) })
	if len(vals) == 0 {
		return nil, false
	}
	v := vals[rng.Intn(len(vals))]
	p := d.Prop(d.EntryProp(e))
	if p.Type == crh.Categorical {
		return p.CatName(int(v.C)), true
	}
	return v.F, true
}

// stripFlags removes the serving-metadata envelope every resolve
// response leads with ({"cached":…,"coalesced":…,) and returns the rest
// of the body and the cached flag.
func stripFlags(body []byte) (rest []byte, cached, ok bool) {
	rest, ok = bytes.CutPrefix(body, []byte(`{"cached":`))
	if ok {
		cached, rest, ok = cutBool(rest)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"coalesced":`))
	}
	if ok {
		_, rest, ok = cutBool(rest)
	}
	return rest, cached, ok
}

func cutBool(b []byte) (bool, []byte, bool) {
	if rest, ok := bytes.CutPrefix(b, []byte("true")); ok {
		return true, rest, true
	}
	if rest, ok := bytes.CutPrefix(b, []byte("false")); ok {
		return false, rest, true
	}
	return false, nil, false
}

// resolveDoc is the part of a resolve response the checks read.
type resolveDoc struct {
	Version   int64              `json:"version"`
	Converged bool               `json:"converged"`
	Truths    []truthDoc         `json:"truths"`
	Weights   map[string]float64 `json:"weights"`
}

// truthDoc is one resolved truth; Value is a JSON number or string.
type truthDoc struct {
	Object   string          `json:"object"`
	Property string          `json:"property"`
	Value    json.RawMessage `json:"value"`
}

// truthDiff compares crhd's resolved truths with an in-process result
// on a dataset with the same objects and properties. It counts the
// entries the in-process solve resolved and those whose crhd value
// differs (floats compared bit for bit) or is missing, and describes
// the first difference; crhd resolving entries the in-process solve did
// not is a difference too.
func truthDiff(d *crh.Dataset, res *crh.Result, doc *resolveDoc) (n, differ int, first error) {
	got := make(map[string]json.RawMessage, len(doc.Truths))
	for _, t := range doc.Truths {
		got[t.Object+"\x00"+t.Property] = t.Value
	}
	note := func(k int, err error) {
		differ += k
		if first == nil {
			first = err
		}
	}
	found := 0
	for e := 0; e < res.Truths.Len(); e++ {
		v, ok := res.Truths.Get(e)
		if !ok {
			continue
		}
		n++
		obj, p := d.ObjectName(d.EntryObject(e)), d.Prop(d.EntryProp(e))
		raw, ok := got[obj+"\x00"+p.Name]
		if ok {
			found++
		}
		switch {
		case !ok:
			note(1, fmt.Errorf("crhd has no truth for %s/%s", obj, p.Name))
		case p.Type == crh.Categorical:
			var s string
			if err := json.Unmarshal(raw, &s); err != nil || s != p.CatName(int(v.C)) {
				note(1, fmt.Errorf("%s/%s: crhd says %s, in-process %q", obj, p.Name, raw, p.CatName(int(v.C))))
			}
		default:
			f, err := strconv.ParseFloat(string(raw), 64)
			if err != nil || math.Float64bits(f) != math.Float64bits(v.F) {
				note(1, fmt.Errorf("%s/%s: crhd says %s, in-process %v", obj, p.Name, raw, v.F))
			}
		}
	}
	if extra := len(doc.Truths) - found; extra > 0 {
		note(extra, fmt.Errorf("crhd resolved %d entries the in-process solve did not", extra))
	}
	return n, differ, first
}

// weightDiff compares crhd's source weights with the in-process ones,
// matched by source name. It returns the largest relative difference
// and the number of weights that are not bit-identical (a weight crhd
// lacks counts as differing, with an infinite difference).
func weightDiff(d *crh.Dataset, res *crh.Result, doc *resolveDoc) (maxRel float64, differ int) {
	for k, w := range res.Weights {
		got, ok := doc.Weights[d.SourceName(k)]
		switch {
		case !ok:
			maxRel, differ = math.Inf(1), differ+1
		case math.Float64bits(got) != math.Float64bits(w):
			maxRel = math.Max(maxRel, math.Abs(got-w)/math.Max(math.Abs(w), math.Abs(got)))
			differ++
		}
	}
	if extra := len(doc.Weights) - len(res.Weights); extra > 0 {
		maxRel, differ = math.Inf(1), differ+extra
	}
	return maxRel, differ
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Stages map[string]struct {
		Count int64   `json:"count"`
		SumMs float64 `json:"sum_ms"`
	} `json:"stages"`
}

// stageNames are crhd's resolve pipeline stages, in request order.
var stageNames = []string{"decode", "cache", "coalesce", "queue", "solve", "encode"}

// statsDelta is what the server did between two /v1/stats documents:
// the mean time per request in each stage (over the requests that
// traversed it; 0 when none did) and the cache hit ratio of the lookups
// in between (0 when there were none).
func statsDelta(before, after statsDoc) (stageMs map[string]float64, hitRatio float64) {
	stageMs = make(map[string]float64, len(stageNames))
	for _, name := range stageNames {
		a, b := after.Stages[name], before.Stages[name]
		if n := a.Count - b.Count; n > 0 {
			stageMs[name] = (a.SumMs - b.SumMs) / float64(n)
		} else {
			stageMs[name] = 0
		}
	}
	hits := after.Cache.Hits - before.Cache.Hits
	if lookups := hits + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	return stageMs, hitRatio
}

// parseExposition reads the samples of a Prometheus text exposition,
// keyed by series name with labels.
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[string(line[:i])] = v
	}
	return out
}

// stageRecord is one line of crhd's -stage-log output: a resolve's
// per-stage durations in nanoseconds (absent stages read 0).
type stageRecord struct {
	Decode   int64 `json:"decode"`
	Cache    int64 `json:"cache"`
	Coalesce int64 `json:"coalesce"`
	Queue    int64 `json:"queue"`
	Solve    int64 `json:"solve"`
	Encode   int64 `json:"encode"`
}

// stages returns the record's durations in stageNames order.
func (r stageRecord) stages() []int64 {
	return []int64{r.Decode, r.Cache, r.Coalesce, r.Queue, r.Solve, r.Encode}
}
