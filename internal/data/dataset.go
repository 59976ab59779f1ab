package data

import "fmt"

// Dataset is an immutable multi-source observation matrix: K sources × N
// objects × M typed properties, with missing values. Construct one with a
// Builder; a built Dataset is safe for concurrent readers.
//
// Entries are addressed either by (object, property) index pairs or by a
// flattened entry index e = object*M + property.
//
// The claims are stored once, entry-major, in compressed sparse rows —
// the layout the solver's hot loops run on:
//
//   - off[e]..off[e+1] bounds entry e's claims in src, whose elements are
//     the observing source indices in strictly ascending order;
//   - voff[e] locates the entry's claim values in vf (continuous
//     properties) or vc (categorical properties, as category indices),
//     parallel to src, so each entry's values are one contiguous slice.
//
// Per-entry questions (who observed e, with what values) are slices;
// per-(source, entry) lookups (Has, Get) cost a binary search over the
// entry's observers. Offsets are int32, so a Dataset holds at most
// 2³¹−1 claims.
type Dataset struct {
	objects []string
	props   []Property
	sources []string

	off  []int32
	src  []uint32
	voff []int32
	vf   []float64
	vc   []uint32

	// counts[k] is the number of entries source k observed; maxObs the
	// largest per-entry observer count.
	counts []int
	maxObs int

	// timestamps[i] is an optional collection timestamp for object i,
	// used to chunk the data for streaming (incremental CRH). Nil when
	// the dataset carries no temporal information.
	timestamps []int
}

// NumObjects returns N.
func (d *Dataset) NumObjects() int { return len(d.objects) }

// NumProps returns M.
func (d *Dataset) NumProps() int { return len(d.props) }

// NumSources returns K.
func (d *Dataset) NumSources() int { return len(d.sources) }

// NumEntries returns N*M, the number of addressable entries.
func (d *Dataset) NumEntries() int { return len(d.objects) * len(d.props) }

// NumObservations returns the total number of (source, entry) observations.
func (d *Dataset) NumObservations() int { return len(d.src) }

// ObjectName returns the name of object i.
func (d *Dataset) ObjectName(i int) string { return d.objects[i] }

// SourceName returns the name of source k.
func (d *Dataset) SourceName(k int) string { return d.sources[k] }

// Prop returns property m. The returned pointer must be treated as
// read-only.
func (d *Dataset) Prop(m int) *Property { return &d.props[m] }

// Entry flattens an (object, property) pair into an entry index.
func (d *Dataset) Entry(i, m int) int { return i*len(d.props) + m }

// EntryObject returns the object index of entry e.
func (d *Dataset) EntryObject(e int) int { return e / len(d.props) }

// EntryProp returns the property index of entry e.
func (d *Dataset) EntryProp(e int) int { return e % len(d.props) }

// Has reports whether source k observed entry (i, m). It costs a binary
// search over the entry's observers.
func (d *Dataset) Has(k, i, m int) bool { return d.HasEntry(k, d.Entry(i, m)) }

// HasEntry reports whether source k observed entry e. See Has.
func (d *Dataset) HasEntry(k, e int) bool {
	_, ok := d.claim(k, e)
	return ok
}

// Get returns source k's observation of entry (i, m), at the cost of a
// binary search. The result is the zero Value unless Has(k, i, m).
func (d *Dataset) Get(k, i, m int) Value { return d.GetEntry(k, d.Entry(i, m)) }

// GetEntry returns source k's observation of entry e. See Get.
func (d *Dataset) GetEntry(k, e int) Value {
	j, ok := d.claim(k, e)
	if !ok {
		return Value{}
	}
	j -= int(d.off[e])
	if d.props[d.EntryProp(e)].Type == Categorical {
		return Cat(int(d.EntryCodes(e)[j]))
	}
	return Float(d.EntryFloats(e)[j])
}

// claim binary-searches entry e's ascending observer list for source k,
// returning the claim's index in src and whether it exists.
func (d *Dataset) claim(k, e int) (int, bool) {
	lo, end := int(d.off[e]), int(d.off[e+1])
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(d.src[mid]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && int(d.src[lo]) == k
}

// ObservationCount returns the number of entries source k observed.
func (d *Dataset) ObservationCount(k int) int { return d.counts[k] }

// ForEntry calls fn for every source that observed entry e, in ascending
// source order.
func (d *Dataset) ForEntry(e int, fn func(k int, v Value)) {
	srcs := d.EntrySources(e)
	if d.props[d.EntryProp(e)].Type == Categorical {
		for j, c := range d.EntryCodes(e) {
			fn(int(srcs[j]), Cat(int(c)))
		}
		return
	}
	for j, f := range d.EntryFloats(e) {
		fn(int(srcs[j]), Float(f))
	}
}

// EntryObservers returns the number of sources observing entry e.
func (d *Dataset) EntryObservers(e int) int { return int(d.off[e+1] - d.off[e]) }

// MaxEntryObservers returns the largest EntryObservers over all entries.
func (d *Dataset) MaxEntryObservers() int { return d.maxObs }

// EntrySources returns the sources observing entry e, ascending. The
// slice is the dataset's own storage and must be treated as read-only.
func (d *Dataset) EntrySources(e int) []uint32 { return d.src[d.off[e]:d.off[e+1]] }

// EntryFloats returns entry e's continuous claim values, parallel to
// EntrySources(e). Empty for categorical entries; read-only.
func (d *Dataset) EntryFloats(e int) []float64 {
	if d.props[d.EntryProp(e)].Type == Categorical {
		return nil
	}
	return d.vf[d.voff[e] : d.voff[e]+d.off[e+1]-d.off[e]]
}

// EntryCodes returns entry e's claimed category indices, parallel to
// EntrySources(e). Empty for continuous entries; read-only.
func (d *Dataset) EntryCodes(e int) []uint32 {
	if d.props[d.EntryProp(e)].Type != Categorical {
		return nil
	}
	return d.vc[d.voff[e] : d.voff[e]+d.off[e+1]-d.off[e]]
}

// HasTimestamps reports whether the dataset carries per-object timestamps.
func (d *Dataset) HasTimestamps() bool { return d.timestamps != nil }

// Timestamp returns object i's collection timestamp (0 when absent).
func (d *Dataset) Timestamp(i int) int {
	if d.timestamps == nil {
		return 0
	}
	return d.timestamps[i]
}

// TimestampRange returns the minimum and maximum object timestamps.
// Both are 0 when the dataset carries no timestamps or no objects.
func (d *Dataset) TimestampRange() (min, max int) {
	if d.timestamps == nil || len(d.timestamps) == 0 {
		return 0, 0
	}
	min, max = d.timestamps[0], d.timestamps[0]
	for _, t := range d.timestamps[1:] {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return min, max
}

// Slice returns a new Dataset containing only the objects for which keep
// returns true. Sources, properties and categorical dictionaries are shared
// with the receiver (they are read-only); the kept objects' claims are
// copied. Used by the streaming layer to materialize per-timestamp chunks.
func (d *Dataset) Slice(keep func(object int) bool) *Dataset {
	M := len(d.props)
	out := &Dataset{
		objects: []string{},
		props:   d.props,
		sources: d.sources,
		off:     []int32{0},
		counts:  make([]int, len(d.sources)),
	}
	if d.timestamps != nil {
		out.timestamps = []int{}
	}
	for i, name := range d.objects {
		if !keep(i) {
			continue
		}
		out.objects = append(out.objects, name)
		if d.timestamps != nil {
			out.timestamps = append(out.timestamps, d.timestamps[i])
		}
		for e := i * M; e < (i+1)*M; e++ {
			srcs := d.EntrySources(e)
			if d.props[e%M].Type == Categorical {
				out.voff = append(out.voff, int32(len(out.vc)))
				out.vc = append(out.vc, d.EntryCodes(e)...)
			} else {
				out.voff = append(out.voff, int32(len(out.vf)))
				out.vf = append(out.vf, d.EntryFloats(e)...)
			}
			out.src = append(out.src, srcs...)
			out.off = append(out.off, int32(len(out.src)))
			for _, k := range srcs {
				out.counts[k]++
			}
			out.maxObs = max(out.maxObs, len(srcs))
		}
	}
	return out
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation found: the claim offsets, the per-entry source
// order, the value offsets, the category codes, and the per-source and
// per-entry counts. A Dataset produced by Builder.Build always validates.
func (d *Dataset) Validate() error {
	NM, K := d.NumEntries(), len(d.sources)
	if len(d.off) != NM+1 || len(d.voff) != NM || len(d.counts) != K {
		return fmt.Errorf("data: index arrays sized %d/%d/%d, want %d/%d/%d", len(d.off), len(d.voff), len(d.counts), NM+1, NM, K)
	}
	if d.off[0] != 0 || int(d.off[NM]) != len(d.src) {
		return fmt.Errorf("data: claim offsets span [%d,%d), want [0,%d)", d.off[0], d.off[NM], len(d.src))
	}
	counts := make([]int, K)
	var nf, nc int32
	maxObs := 0
	for e := 0; e < NM; e++ {
		if d.off[e] > d.off[e+1] {
			return fmt.Errorf("data: claim offsets decrease at entry %d (%d > %d)", e, d.off[e], d.off[e+1])
		}
		n := d.off[e+1] - d.off[e]
		maxObs = max(maxObs, int(n))
		p := &d.props[e%len(d.props)]
		next := &nf
		if p.Type == Categorical {
			next = &nc
		}
		if d.voff[e] != *next {
			return fmt.Errorf("data: entry %d value offset %d, want %d", e, d.voff[e], *next)
		}
		*next += n
		prev := -1
		for _, k := range d.EntrySources(e) {
			if int(k) <= prev || int(k) >= K {
				return fmt.Errorf("data: entry %d sources not strictly ascending in [0,%d): %d after %d", e, K, k, prev)
			}
			prev = int(k)
			counts[k]++
		}
		if p.Type == Categorical {
			for _, c := range d.vc[d.voff[e] : d.voff[e]+n] {
				if int(c) >= p.NumCats() {
					return fmt.Errorf("data: entry %d category %d out of range [0,%d)", e, c, p.NumCats())
				}
			}
		}
	}
	if int(nf) != len(d.vf) || int(nc) != len(d.vc) {
		return fmt.Errorf("data: value columns hold %d/%d values, want %d/%d", len(d.vf), len(d.vc), nf, nc)
	}
	for k, c := range counts {
		if c != d.counts[k] {
			return fmt.Errorf("data: source %d count %d, want %d", k, d.counts[k], c)
		}
	}
	if maxObs != d.maxObs {
		return fmt.Errorf("data: max observers %d, want %d", d.maxObs, maxObs)
	}
	if d.timestamps != nil && len(d.timestamps) != len(d.objects) {
		return fmt.Errorf("data: %d timestamps for %d objects", len(d.timestamps), len(d.objects))
	}
	return nil
}
