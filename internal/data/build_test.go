package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The claim index Build writes is checked against a naive reference: a
// map from (source, entry) to the last value recorded for it. Whatever
// order observations arrive in, each entry must list exactly the
// reference's claims, in ascending source order, bit for bit.

type claimKey struct{ src, e int }

// claimStream is a recorded observation sequence over a fixed schema.
type claimStream struct {
	sources, objects int
	props            []Type
	cats             int // categories per categorical property
	obs              []claim
}

// claim is one recorded observation of a claimStream.
type claim struct {
	src, obj, prop int
	val            Value
}

// randomStream draws a mixed continuous/categorical stream with missing
// entries and, when dups is set, repeated (source, entry) claims.
func randomStream(seed int64, sources, objects int, dups bool) claimStream {
	rng := rand.New(rand.NewSource(seed))
	cs := claimStream{sources: sources, objects: objects, props: []Type{Continuous, Categorical, Continuous}, cats: 4}
	for i := 0; i < objects; i++ {
		for k := 0; k < sources; k++ {
			for m, t := range cs.props {
				if rng.Float64() < 0.3 {
					continue // missing value
				}
				repeats := 1
				if dups && rng.Float64() < 0.2 {
					repeats = 2 + rng.Intn(2)
				}
				for r := 0; r < repeats; r++ {
					v := Float(rng.NormFloat64() * 10)
					if t == Categorical {
						v = Cat(rng.Intn(cs.cats))
					}
					cs.obs = append(cs.obs, claim{k, i, m, v})
				}
			}
		}
	}
	return cs
}

// builder feeds the stream into a fresh Builder in recording order.
func (cs claimStream) builder() *Builder {
	b := NewBuilder()
	for k := 0; k < cs.sources; k++ {
		b.Source(fmt.Sprintf("s%02d", k))
	}
	for i := 0; i < cs.objects; i++ {
		b.Object(fmt.Sprintf("o%04d", i))
	}
	for m, t := range cs.props {
		p := b.MustProperty(fmt.Sprintf("p%d", m), t)
		for c := 0; t == Categorical && c < cs.cats; c++ {
			b.CatValue(p, fmt.Sprintf("c%d", c))
		}
	}
	for _, o := range cs.obs {
		b.ObserveIdx(o.src, o.obj, o.prop, o.val)
	}
	return b
}

// build builds the stream's dataset.
func (cs claimStream) build() *Dataset { return cs.builder().Build() }

// reference is the last-wins claim map of the stream.
func (cs claimStream) reference() map[claimKey]Value {
	ref := make(map[claimKey]Value)
	for _, o := range cs.obs {
		ref[claimKey{o.src, o.obj*len(cs.props) + o.prop}] = o.val
	}
	return ref
}

// checkAgainstReference compares every entry's claims with ref.
func checkAgainstReference(t *testing.T, d *Dataset, ref map[claimKey]Value) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.NumObservations() != len(ref) {
		t.Fatalf("observations %d, want %d", d.NumObservations(), len(ref))
	}
	counts := make([]int, d.NumSources())
	maxObs := 0
	for e := 0; e < d.NumEntries(); e++ {
		cat := d.Prop(d.EntryProp(e)).Type == Categorical
		var want []int
		for k := 0; k < d.NumSources(); k++ {
			v, ok := ref[claimKey{k, e}]
			if d.HasEntry(k, e) != ok {
				t.Fatalf("entry %d source %d: HasEntry %t, want %t", e, k, !ok, ok)
			}
			if !ok {
				continue
			}
			want = append(want, k)
			counts[k]++
			if got := d.GetEntry(k, e); !sameValue(got, v, cat) {
				t.Fatalf("entry %d source %d: GetEntry %+v, want %+v", e, k, got, v)
			}
		}
		maxObs = max(maxObs, len(want))
		if d.EntryObservers(e) != len(want) {
			t.Fatalf("entry %d: %d observers, want %d", e, d.EntryObservers(e), len(want))
		}
		j := 0
		d.ForEntry(e, func(k int, v Value) {
			if j >= len(want) || k != want[j] {
				t.Fatalf("entry %d claim %d: source %d, want order %v", e, j, k, want)
			}
			if !sameValue(v, ref[claimKey{k, e}], cat) {
				t.Fatalf("entry %d source %d: ForEntry %+v, want %+v", e, k, v, ref[claimKey{k, e}])
			}
			j++
		})
		if j != len(want) {
			t.Fatalf("entry %d: ForEntry yielded %d claims, want %d", e, j, len(want))
		}
		srcs := d.EntrySources(e)
		floats, codes := d.EntryFloats(e), d.EntryCodes(e)
		for j, k := range srcs {
			if int(k) != want[j] {
				t.Fatalf("entry %d: EntrySources %v, want %v", e, srcs, want)
			}
			v := ref[claimKey{int(k), e}]
			if cat && codes[j] != uint32(v.C) || !cat && math.Float64bits(floats[j]) != math.Float64bits(v.F) {
				t.Fatalf("entry %d claim %d: value column differs from %+v", e, j, v)
			}
		}
		if cat && (len(codes) != len(srcs) || floats != nil) || !cat && (len(floats) != len(srcs) || codes != nil) {
			t.Fatalf("entry %d: value columns sized %d/%d for %d claims", e, len(floats), len(codes), len(srcs))
		}
	}
	for k, c := range counts {
		if d.ObservationCount(k) != c {
			t.Fatalf("source %d: count %d, want %d", k, d.ObservationCount(k), c)
		}
	}
	if d.MaxEntryObservers() != maxObs {
		t.Fatalf("MaxEntryObservers %d, want %d", d.MaxEntryObservers(), maxObs)
	}
}

// sameValue compares the payload the property type selects, bit for bit.
func sameValue(a, b Value, cat bool) bool {
	if cat {
		return a.C == b.C
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameIndex reports whether two datasets hold identical claim arrays.
func sameIndex(a, b *Dataset) bool {
	return slices.Equal(a.off, b.off) && slices.Equal(a.src, b.src) &&
		slices.Equal(a.voff, b.voff) && slices.Equal(a.vc, b.vc) &&
		slices.EqualFunc(a.vf, b.vf, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) &&
		slices.Equal(a.counts, b.counts) && a.maxObs == b.maxObs
}

// TestBuildMatchesReference: every entry lists exactly the last-wins
// reference claims, in ascending source order, through every accessor.
func TestBuildMatchesReference(t *testing.T) {
	cs := randomStream(1, 9, 120, true)
	checkAgainstReference(t, cs.build(), cs.reference())

	// The same claims recorded already in claim order (by entry, then
	// source, no repeats) skip the reordering and must index the same.
	ref := cs.reference()
	ordered := cs
	ordered.obs = nil
	for e := 0; e < cs.objects*len(cs.props); e++ {
		for k := 0; k < cs.sources; k++ {
			if v, ok := ref[claimKey{k, e}]; ok {
				ordered.obs = append(ordered.obs, claim{k, e / len(cs.props), e % len(cs.props), v})
			}
		}
	}
	checkAgainstReference(t, ordered.build(), ref)
	if !sameIndex(ordered.build(), cs.build()) {
		t.Fatal("claim-ordered recording indexes differently")
	}
}

// TestBuildInsertionOrderPermutation: the index depends on the claims,
// not on the order they were recorded in. Any permutation that keeps
// each (source, entry)'s repeats in recording order builds identical
// arrays.
func TestBuildInsertionOrderPermutation(t *testing.T) {
	f := func(seed int64) bool {
		cs := randomStream(seed, 2+int(uint64(seed)%7), 25, true)
		want := cs.build()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := rng.Perm(len(cs.obs))
		// Positions are shuffled, but each key hands out its repeats in
		// recording order, so the last claim of every key stays last.
		byKey := make(map[claimKey][]claim)
		for _, o := range cs.obs {
			key := claimKey{o.src, o.obj*len(cs.props) + o.prop}
			byKey[key] = append(byKey[key], o)
		}
		next := make(map[claimKey]int)
		shuffled := cs
		shuffled.obs = make([]claim, 0, len(cs.obs))
		for _, i := range perm {
			o := cs.obs[i]
			key := claimKey{o.src, o.obj*len(cs.props) + o.prop}
			shuffled.obs = append(shuffled.obs, byKey[key][next[key]])
			next[key]++
		}
		got := shuffled.build()
		return sameIndex(want, got) && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBuildDuplicateClaims: a repeated (source, entry) keeps the value
// recorded last, whichever sources interleave with it.
func TestBuildDuplicateClaims(t *testing.T) {
	cs := claimStream{sources: 3, objects: 2, props: []Type{Continuous, Categorical}, cats: 3}
	cs.obs = []claim{
		{2, 0, 0, Float(1)}, {0, 0, 0, Float(2)}, {2, 0, 0, Float(3)},
		{1, 1, 1, Cat(0)}, {1, 1, 1, Cat(2)}, {0, 1, 1, Cat(1)}, {1, 1, 1, Cat(1)},
	}
	d := cs.build()
	checkAgainstReference(t, d, cs.reference())
	if got := d.Get(2, 0, 0).F; got != 3 {
		t.Fatalf("source 2 entry (0,0) kept %v, want 3", got)
	}
	if got := d.Get(1, 1, 1).C; got != 1 {
		t.Fatalf("source 1 entry (1,1) kept %d, want 1", got)
	}

	// Randomized: the reference check over streams with many repeats.
	for seed := int64(2); seed < 12; seed++ {
		cs := randomStream(seed, 5, 30, true)
		checkAgainstReference(t, cs.build(), cs.reference())
	}
}

// TestBuildEmptyEntries: entries nobody observed have empty claim
// ranges, and MaxEntryObservers reflects the densest entry.
func TestBuildEmptyEntries(t *testing.T) {
	b := NewBuilder()
	pf := b.MustProperty("f", Continuous)
	b.Object("a")
	b.Object("b")
	b.ObserveIdx(b.Source("s0"), b.Object("a"), pf, Float(1))
	b.ObserveIdx(b.Source("s1"), b.Object("a"), pf, Float(2))
	d := b.Build()
	if d.EntryObservers(0) != 2 || d.EntryObservers(1) != 0 {
		t.Fatalf("observers: %d,%d want 2,0", d.EntryObservers(0), d.EntryObservers(1))
	}
	if d.MaxEntryObservers() != 2 {
		t.Fatalf("MaxEntryObservers %d, want 2", d.MaxEntryObservers())
	}
	if got := d.EntryFloats(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("entry 0 floats %v", got)
	}
	if len(d.EntrySources(1)) != 0 || len(d.EntryFloats(1)) != 0 || d.HasEntry(0, 1) {
		t.Fatal("entry 1 should hold no claims")
	}
	if got := d.GetEntry(0, 1); got != (Value{}) {
		t.Fatalf("missing claim reads %+v, want the zero Value", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// A schema with no observations at all.
	b = NewBuilder()
	b.MustProperty("f", Continuous)
	b.Source("s")
	b.Object("o")
	d = b.Build()
	if d.NumObservations() != 0 || d.MaxEntryObservers() != 0 || d.Validate() != nil {
		t.Fatal("empty dataset should validate with no claims")
	}
}

// TestBuildDeterministicRebuild: building the same stream twice — from
// one Builder or from two — produces identical arrays.
func TestBuildDeterministicRebuild(t *testing.T) {
	f := func(seed int64) bool {
		cs := randomStream(seed, 3+int(uint64(seed)%9), 40, true)
		b := cs.builder()
		return sameIndex(b.Build(), b.Build()) && sameIndex(b.Build(), cs.build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBuildCodesDeterministicAcrossRebuilds: replaying the same named
// categorical claims into two fresh Builders yields the same
// dictionaries and the same code column — the property crhd's
// log-replay rebuilds rely on for identical solves.
func TestBuildCodesDeterministicAcrossRebuilds(t *testing.T) {
	f := func(seed int64) bool {
		cs := randomStream(seed, 3+int(uint64(seed)%5), 30, true)
		replay := func() *Dataset {
			b := NewBuilder()
			for _, o := range cs.obs {
				src, obj, prop := fmt.Sprintf("s%d", o.src), fmt.Sprintf("o%d", o.obj), fmt.Sprintf("p%d", o.prop)
				if cs.props[o.prop] == Categorical {
					_ = b.ObserveCat(src, obj, prop, fmt.Sprintf("c%d", o.val.C))
				} else {
					_ = b.ObserveFloat(src, obj, prop, o.val.F)
				}
			}
			return b.Build()
		}
		a, b := replay(), replay()
		for m := 0; m < a.NumProps(); m++ {
			pa, pb := a.Prop(m), b.Prop(m)
			if pa.Name != pb.Name || pa.NumCats() != pb.NumCats() {
				return false
			}
			for c := 0; c < pa.NumCats(); c++ {
				if pa.CatName(c) != pb.CatName(c) {
					return false
				}
			}
		}
		return sameIndex(a, b) && a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSliceMatchesReference: a slice holds exactly the kept objects'
// reference claims, renumbered.
func TestSliceMatchesReference(t *testing.T) {
	cs := randomStream(4, 6, 40, true)
	d := cs.build()
	keep := func(i int) bool { return i%3 != 1 }
	s := d.Slice(keep)
	ref := cs.reference()
	want := make(map[claimKey]Value)
	M := len(cs.props)
	ni := 0
	for i := 0; i < cs.objects; i++ {
		if !keep(i) {
			continue
		}
		if s.ObjectName(ni) != d.ObjectName(i) {
			t.Fatalf("slice object %d is %q, want %q", ni, s.ObjectName(ni), d.ObjectName(i))
		}
		for k := 0; k < cs.sources; k++ {
			for m := 0; m < M; m++ {
				if v, ok := ref[claimKey{k, i*M + m}]; ok {
					want[claimKey{k, ni*M + m}] = v
				}
			}
		}
		ni++
	}
	if s.NumObjects() != ni {
		t.Fatalf("slice holds %d objects, want %d", s.NumObjects(), ni)
	}
	checkAgainstReference(t, s, want)
}

// TestValidateRejectsBrokenIndex corrupts one invariant of a built
// index at a time; Validate must name each.
func TestValidateRejectsBrokenIndex(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Dataset)
	}{
		{"offsets sized", func(d *Dataset) { d.off = d.off[:len(d.off)-1] }},
		{"offsets span", func(d *Dataset) { d.off[len(d.off)-1]-- }},
		{"offsets monotone", func(d *Dataset) { d.off[1], d.off[2] = d.off[2], d.off[1] }},
		{"value offsets", func(d *Dataset) { d.voff[1]++ }},
		{"value columns", func(d *Dataset) { d.vf = append(d.vf, 0) }},
		{"sources ascending", func(d *Dataset) { s := d.EntrySources(0); s[0], s[1] = s[1], s[0] }},
		{"sources in range", func(d *Dataset) { s := d.EntrySources(0); s[len(s)-1] = uint32(d.NumSources()) }},
		{"category range", func(d *Dataset) { d.EntryCodes(1)[0] = uint32(d.Prop(1).NumCats()) }},
		{"source counts", func(d *Dataset) { d.counts[0]++ }},
		{"max observers", func(d *Dataset) { d.maxObs++ }},
		{"timestamps", func(d *Dataset) { d.timestamps = []int{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := claimStream{sources: 3, objects: 2, props: []Type{Continuous, Categorical}, cats: 2}
			for i := 0; i < cs.objects; i++ {
				for k := 0; k < cs.sources; k++ {
					cs.obs = append(cs.obs, claim{k, i, 0, Float(float64(k))}, claim{k, i, 1, Cat(k % 2)})
				}
			}
			d := cs.build()
			if err := d.Validate(); err != nil {
				t.Fatalf("intact index: %v", err)
			}
			tc.corrupt(d)
			if err := d.Validate(); err == nil {
				t.Fatal("corruption not detected")
			}
		})
	}
}

// TestBuildClaimCountGuard: more observations than the int32 claim
// index can address panic instead of wrapping.
func TestBuildClaimCountGuard(t *testing.T) {
	checkClaimCount(math.MaxInt32) // the largest addressable count
	defer func() {
		if recover() == nil {
			t.Fatal("2³¹ observations accepted")
		}
	}()
	checkClaimCount(math.MaxInt32 + 1)
}
