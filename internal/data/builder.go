package data

import (
	"fmt"
	"math"
	"slices"
)

// Builder incrementally assembles a Dataset from observation triples.
// Objects, properties, sources and categorical values are interned on first
// mention; observations may arrive in any order. A Builder is not safe for
// concurrent use.
type Builder struct {
	objects  []string
	objByID  map[string]int
	props    []Property
	propByID map[string]int
	sources  []string
	srcByID  map[string]int

	obs        []rawObs
	timestamps map[int]int // object index -> timestamp
}

// rawObs is one recorded observation. The Value's two payloads are
// stored apart, beside int32 indices, so it packs into 24 bytes: a large
// dataset's Builder holds millions, and Build reads each at least twice.
type rawObs struct {
	f                   float64
	src, obj, prop, cat int32
}

func newRawObs(src, obj, prop int, v Value) rawObs {
	return rawObs{v.F, int32(src), int32(obj), int32(prop), v.C}
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		objByID:  make(map[string]int),
		propByID: make(map[string]int),
		srcByID:  make(map[string]int),
	}
}

// Object interns an object name and returns its index.
func (b *Builder) Object(name string) int {
	if id, ok := b.objByID[name]; ok {
		return id
	}
	id := len(b.objects)
	b.objects = append(b.objects, name)
	b.objByID[name] = id
	return id
}

// Source interns a source name and returns its index.
func (b *Builder) Source(name string) int {
	if id, ok := b.srcByID[name]; ok {
		return id
	}
	id := len(b.sources)
	b.sources = append(b.sources, name)
	b.srcByID[name] = id
	return id
}

// Property interns a property with the given type and returns its index.
// It returns an error if the property already exists with a different type.
func (b *Builder) Property(name string, t Type) (int, error) {
	if id, ok := b.propByID[name]; ok {
		if b.props[id].Type != t {
			return 0, fmt.Errorf("data: property %q redeclared as %v (was %v)", name, t, b.props[id].Type)
		}
		return id, nil
	}
	id := len(b.props)
	b.props = append(b.props, Property{Name: name, Type: t})
	b.propByID[name] = id
	return id, nil
}

// MustProperty is Property but panics on type conflicts. Intended for
// programmatic schema construction where a conflict is a bug.
func (b *Builder) MustProperty(name string, t Type) int {
	id, err := b.Property(name, t)
	if err != nil {
		panic(err)
	}
	return id
}

// ObserveFloat records a continuous observation. The property is created as
// Continuous on first mention; an error is returned if it exists as
// Categorical, or if the value is NaN or infinite — non-finite
// observations would silently poison every weighted aggregate downstream.
func (b *Builder) ObserveFloat(source, object, property string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("data: non-finite observation %v for %s/%s from %s", v, object, property, source)
	}
	p, err := b.Property(property, Continuous)
	if err != nil {
		return err
	}
	b.obs = append(b.obs, newRawObs(b.Source(source), b.Object(object), p, Float(v)))
	return nil
}

// ObserveCat records a categorical observation, interning the value into the
// property's dictionary. The property is created as Categorical on first
// mention; an error is returned if it exists as Continuous.
func (b *Builder) ObserveCat(source, object, property, v string) error {
	p, err := b.Property(property, Categorical)
	if err != nil {
		return err
	}
	id := b.props[p].internCat(v)
	b.obs = append(b.obs, newRawObs(b.Source(source), b.Object(object), p, Cat(id)))
	return nil
}

// ObserveIdx records an observation by pre-interned indices. It is the fast
// path used by generators; the caller is responsible for index validity
// (categorical values must already be interned via CatValue).
func (b *Builder) ObserveIdx(source, object, property int, v Value) {
	b.obs = append(b.obs, newRawObs(source, object, property, v))
}

// CatValue interns a categorical value for property p and returns its index.
func (b *Builder) CatValue(p int, s string) int { return b.props[p].internCat(s) }

// SetTimestamp attaches a collection timestamp to an object (creating the
// object if needed). Datasets where any object has a timestamp report
// HasTimestamps; untimestamped objects default to 0.
func (b *Builder) SetTimestamp(object string, t int) {
	if b.timestamps == nil {
		b.timestamps = make(map[int]int)
	}
	b.timestamps[b.Object(object)] = t
}

// SetTimestampIdx is SetTimestamp by object index.
func (b *Builder) SetTimestampIdx(object, t int) {
	if b.timestamps == nil {
		b.timestamps = make(map[int]int)
	}
	b.timestamps[object] = t
}

// NumObjects returns the number of objects interned so far.
func (b *Builder) NumObjects() int { return len(b.objects) }

// NumSources returns the number of sources interned so far.
func (b *Builder) NumSources() int { return len(b.sources) }

// Build materializes the Dataset's entry-major claim index (see
// Dataset). Each entry's claims are ordered by ascending source, and
// duplicate observations of the same (source, entry) keep the last value
// recorded. The Builder remains usable; further observations affect only
// later Builds. Build panics when more than 2³¹−1 observations have been
// recorded: the claim offsets are int32, half the footprint of int, and a
// dataset that large does not fit the in-process representation anyway.
func (b *Builder) Build() *Dataset {
	N, M, K := len(b.objects), len(b.props), len(b.sources)
	NM := N * M
	checkClaimCount(len(b.obs))
	d := &Dataset{
		objects: append([]string(nil), b.objects...),
		props:   append([]Property(nil), b.props...),
		sources: append([]string(nil), b.sources...),
		off:     make([]int32, NM+1),
		voff:    make([]int32, NM),
		counts:  make([]int, K),
	}

	// Observations recorded entry by entry with ascending sources — as
	// the TSV codec and generators write them — are the claim list
	// already; anything else is reordered first.
	claims := b.obs
	if !countClaims(d.off, claims, M) {
		claims = claimOrder(claims, NM, M)
		clear(d.off)
		countClaims(d.off, claims, M)
	}

	// Offsets: off is the prefix sum of the per-entry counts; voff
	// prefix-sums continuous and categorical entries separately, so each
	// typed value column is exactly as long as its claims.
	var nf, nc int32
	for e := 0; e < NM; e++ {
		n := d.off[e+1]
		d.off[e+1] += d.off[e]
		d.maxObs = max(d.maxObs, int(n))
		if d.props[e%M].Type == Categorical {
			d.voff[e] = nc
			nc += n
		} else {
			d.voff[e] = nf
			nf += n
		}
	}
	d.src = make([]uint32, len(claims))
	d.vf = make([]float64, 0, nf)
	d.vc = make([]uint32, 0, nc)
	for j := range claims {
		c := &claims[j]
		d.src[j] = uint32(c.src)
		d.counts[c.src]++
		if d.props[c.prop].Type == Categorical {
			d.vc = append(d.vc, uint32(c.cat))
		} else {
			d.vf = append(d.vf, c.f)
		}
	}
	if b.timestamps != nil {
		d.timestamps = make([]int, N)
		for i, t := range b.timestamps {
			d.timestamps[i] = t
		}
	}
	return d
}

// checkClaimCount panics when n observations overflow the int32 claim
// index.
func checkClaimCount(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("data: %d observations overflow the int32 claim index", n))
	}
}

// countClaims adds each observation's entry to cnt[e+1] and reports
// whether obs is already a claim list: ascending by entry, and strictly
// ascending by source within an entry (so no repeats).
func countClaims(cnt []int32, obs []rawObs, M int) bool {
	ordered := true
	prevE, prevSrc := -1, int32(-1)
	for i := range obs {
		o := &obs[i]
		e := int(o.obj)*M + int(o.prop)
		cnt[e+1]++
		if e < prevE || e == prevE && o.src <= prevSrc {
			ordered = false
		}
		prevE, prevSrc = e, o.src
	}
	return ordered
}

// claimOrder returns obs as a claim list: bucketed by entry, each bucket
// ordered by ascending source, and only the last-recorded observation of
// each (source, entry) kept.
func claimOrder(obs []rawObs, NM, M int) []rawObs {
	start := make([]int32, NM+1)
	countClaims(start, obs, M)
	for e := 0; e < NM; e++ {
		start[e+1] += start[e]
	}
	// Bucket by entry, keeping recording order within each bucket.
	order := make([]int32, len(obs))
	fill := append([]int32(nil), start[:NM]...)
	for i := range obs {
		e := int(obs[i].obj)*M + int(obs[i].prop)
		order[fill[e]] = int32(i)
		fill[e]++
	}
	out := make([]rawObs, 0, len(obs))
	for e := 0; e < NM; e++ {
		idx := order[start[e]:start[e+1]]
		// A stable sort keeps each source's repeats in recording order,
		// so the last of a run of equal sources is the one that wins.
		slices.SortStableFunc(idx, func(a, b int32) int { return int(obs[a].src - obs[b].src) })
		for j, i := range idx {
			if j+1 < len(idx) && obs[idx[j+1]].src == obs[i].src {
				continue
			}
			out = append(out, obs[i])
		}
	}
	return out
}
