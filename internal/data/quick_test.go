package data

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDataset builds a random mixed-type dataset from a compact
// generator state, for property-based testing.
func randomDataset(seed int64) (*Dataset, *Table) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	nProps := 1 + rng.Intn(4)
	props := make([]int, nProps)
	for m := 0; m < nProps; m++ {
		if rng.Intn(2) == 0 {
			props[m] = b.MustProperty(fmt.Sprintf("c%d", m), Continuous)
		} else {
			p := b.MustProperty(fmt.Sprintf("k%d", m), Categorical)
			for v := 0; v < 2+rng.Intn(5); v++ {
				b.CatValue(p, fmt.Sprintf("v%d", v))
			}
			props[m] = p
		}
	}
	nObj := 1 + rng.Intn(12)
	nSrc := 1 + rng.Intn(5)
	for i := 0; i < nObj; i++ {
		obj := b.Object(fmt.Sprintf("o%d", i))
		if rng.Intn(2) == 0 {
			b.SetTimestampIdx(obj, rng.Intn(5))
		}
		for k := 0; k < nSrc; k++ {
			src := b.Source(fmt.Sprintf("s%d", k))
			for m := 0; m < nProps; m++ {
				if rng.Float64() < 0.3 {
					continue // missing value
				}
				var v Value
				if b.props[props[m]].Type == Continuous {
					// Values exercising formatting edge cases.
					v = Float(math.Trunc(rng.NormFloat64()*1e6) / 1e3)
				} else {
					v = Cat(rng.Intn(b.props[props[m]].NumCats()))
				}
				b.ObserveIdx(src, obj, props[m], v)
			}
		}
	}
	d := b.Build()
	gt := NewTableFor(d)
	for e := 0; e < d.NumEntries(); e++ {
		if rng.Float64() < 0.4 {
			if d.Prop(d.EntryProp(e)).Type == Continuous {
				gt.Set(e, Float(float64(rng.Intn(100))))
			} else if n := d.Prop(d.EntryProp(e)).NumCats(); n > 0 {
				gt.Set(e, Cat(rng.Intn(n)))
			}
		}
	}
	return d, gt
}

// TestCodecRoundTripQuick: Encode→Decode preserves every observation,
// timestamp, and ground truth for arbitrary datasets.
func TestCodecRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		d, gt := randomDataset(seed)
		var buf bytes.Buffer
		if err := Encode(&buf, d, gt); err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		d2, gt2, err := Decode(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		// Sources with no observations carry no information and are not
		// serialized.
		var activeSources int
		for k := 0; k < d.NumSources(); k++ {
			if d.ObservationCount(k) > 0 {
				activeSources++
			}
		}
		if d2.NumSources() != activeSources || d2.NumProps() != d.NumProps() {
			return false
		}
		// Objects that carry no observations and no truths are not
		// serialized, so compare via name lookup.
		name2idx := make(map[string]int)
		for i := 0; i < d2.NumObjects(); i++ {
			name2idx[d2.ObjectName(i)] = i
		}
		src2idx := make(map[string]int)
		for k := 0; k < d2.NumSources(); k++ {
			src2idx[d2.SourceName(k)] = k
		}
		prop2idx := make(map[string]int)
		for m := 0; m < d2.NumProps(); m++ {
			prop2idx[d2.Prop(m).Name] = m
		}
		for e := 0; e < d.NumEntries(); e++ {
			i, m := d.EntryObject(e), d.EntryProp(e)
			ok := true
			d.ForEntry(e, func(k int, v Value) {
				i2, found := name2idx[d.ObjectName(i)]
				if !found {
					ok = false
					return
				}
				m2 := prop2idx[d.Prop(m).Name]
				k2 := src2idx[d.SourceName(k)]
				if !d2.Has(k2, i2, m2) {
					ok = false
					return
				}
				got := d2.Get(k2, i2, m2)
				if d.Prop(m).Type == Continuous {
					if got.F != v.F {
						ok = false
					}
				} else if d2.Prop(m2).CatName(int(got.C)) != d.Prop(m).CatName(int(v.C)) {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		if d.NumObservations() != d2.NumObservations() {
			return false
		}
		wantGT := gt.Count()
		gotGT := 0
		if gt2 != nil {
			gotGT = gt2.Count()
		}
		// Truths on objects that exist in the encoding survive; truths
		// on unobserved objects survive too because T lines create the
		// object. So counts must match exactly.
		return gotGT == wantGT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSlicePartitionQuick: slicing by any predicate and its complement
// partitions the observations exactly.
func TestSlicePartitionQuick(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		d, _ := randomDataset(seed)
		keep := func(i int) bool { return mask&(1<<(uint(i)%32)) != 0 }
		a := d.Slice(keep)
		b := d.Slice(func(i int) bool { return !keep(i) })
		if a.NumObjects()+b.NumObjects() != d.NumObjects() {
			return false
		}
		if a.NumObservations()+b.NumObservations() != d.NumObservations() {
			return false
		}
		return a.Validate() == nil && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestObserveFloatRejectsNonFinite(t *testing.T) {
	b := NewBuilder()
	if err := b.ObserveFloat("s", "o", "p", math.NaN()); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := b.ObserveFloat("s", "o", "p", math.Inf(1)); err == nil {
		t.Fatal("+Inf accepted")
	}
	if err := b.ObserveFloat("s", "o", "p", math.Inf(-1)); err == nil {
		t.Fatal("-Inf accepted")
	}
	if err := b.ObserveFloat("s", "o", "p", 1.5); err != nil {
		t.Fatalf("finite value rejected: %v", err)
	}
	// The dataset contains only the accepted observation.
	if got := b.Build().NumObservations(); got != 1 {
		t.Fatalf("observations = %d", got)
	}
}

// Property tests for the categorical dictionaries: a claim's category
// code is its index in the property's dictionary, so the dictionary must
// be a deterministic bijection — intern/lookup round-trips, codes depend
// only on first-mention order, and rebuilding from the same inputs
// reproduces it exactly.

// nameStream derives a bounded random stream of names (with duplicates)
// from a seed.
func nameStream(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	distinct := 1 + rng.Intn(12)
	n := distinct + rng.Intn(40)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%02d", rng.Intn(distinct))
	}
	return out
}

// internAll builds a categorical property's dictionary from a stream.
func internAll(stream []string) *Property {
	p := &Property{Name: "p", Type: Categorical}
	for _, s := range stream {
		p.internCat(s)
	}
	return p
}

// sameCats reports whether two properties map the same names to the
// same codes.
func sameCats(a, b *Property) bool {
	if a.NumCats() != b.NumCats() {
		return false
	}
	for c := 0; c < a.NumCats(); c++ {
		if a.CatName(c) != b.CatName(c) {
			return false
		}
	}
	return true
}

// TestCategoryDictRoundTripQuick: after interning any stream, CatID∘CatName
// and CatName∘CatID are identities, codes are dense in [0, NumCats), and
// interning is idempotent.
func TestCategoryDictRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		stream := nameStream(seed)
		p := internAll(stream)
		for c := 0; c < p.NumCats(); c++ {
			if got, ok := p.CatID(p.CatName(c)); !ok || got != c {
				return false
			}
		}
		for _, s := range stream {
			c, ok := p.CatID(s)
			if !ok || c >= p.NumCats() || p.CatName(c) != s {
				return false
			}
			if p.internCat(s) != c { // idempotent: re-interning changes nothing
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCategoryCodeStabilityUnderPermutedInsertion: codes are a function
// of the first-mention order alone. Shuffling every repeat mention while
// keeping each name's first occurrence in place yields an identical
// dictionary.
func TestCategoryCodeStabilityUnderPermutedInsertion(t *testing.T) {
	f := func(seed int64) bool {
		stream := nameStream(seed)
		seen := make(map[string]bool)
		var firsts, dups []string
		for _, s := range stream {
			if seen[s] {
				dups = append(dups, s)
			} else {
				seen[s] = true
				firsts = append(firsts, s)
			}
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
		return sameCats(internAll(stream), internAll(append(firsts, dups...)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCategoryDictRebuildDeterminismQuick: interning the same stream
// twice, or re-interning a dictionary's own name list, reproduces it
// exactly — what gives every rebuild of a dataset identical codes.
func TestCategoryDictRebuildDeterminismQuick(t *testing.T) {
	f := func(seed int64) bool {
		stream := nameStream(seed)
		a := internAll(stream)
		names := make([]string, a.NumCats())
		for c := range names {
			names[c] = a.CatName(c)
		}
		return sameCats(a, internAll(stream)) && sameCats(a, internAll(names))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
