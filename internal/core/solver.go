package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/crhkit/crh/internal/data"
	"github.com/crhkit/crh/internal/loss"
	"github.com/crhkit/crh/internal/reg"
)

// solver carries the mutable state of one run over a Prepared.
// Every buffer the iteration loop touches is allocated here, once: with
// the default losses and scheme steady-state iterations perform zero
// allocations — a contract pinned by TestSolverIterationAllocFree.
type solver struct {
	prep *Prepared
	d    *data.Dataset
	cfg  Config

	workers int
	pool    *Pool
	// scratches recycles per-goroutine gather buffers across parallel
	// regions; the sequential path uses the solver-owned seq scratch,
	// which — unlike a sync.Pool entry — cannot be reclaimed by the GC
	// mid-run, keeping the Workers=1 path deterministic in allocation
	// behaviour too.
	scratches sync.Pool
	seq       *scratch
	// lastWorkers records the worker budget engaged by the most recent
	// parallel region — the truth phase's count the solver trace reports.
	lastWorkers int

	truths *data.Table
	// weights[g][k] is source k's weight for property group g; the
	// default configuration has a single group. The scheme rewrites the
	// buffers in place every iteration.
	weights [][]float64
	// groupOf[m] is property m's group index.
	groupOf []int

	// The configured losses and scheme in the shape the solver calls
	// (WithDefaults adapted any that lacked it).
	cont   loss.ContinuousKernel
	cat    loss.CategoricalKernel
	scheme reg.Kernel

	// dists[e] is the per-entry category distribution the categorical
	// loss returned (nil for hard losses, continuous entries and pinned
	// truths). For a loss that NeedsDist the views index one contiguous
	// arena the loss overwrites in place.
	dists     [][]float64
	distArena []float64

	// Step I state: per-shard partial loss matrices, flattened to
	// [k*M+m], and their merged totals. partSum/partCnt hold nsh
	// consecutive K·M regions so each shard accumulates into its own
	// slot and the merge can walk them in ascending shard order.
	nsh     int
	partSum []float64
	partCnt []int32
	lm      *LossMatrix
	// groupLosses/groupCounts are the per-group losses and observation
	// counts the last pass combined, reused across iterations.
	groupLosses [][]float64
	groupCounts [][]int
	// allProps is the identity property list, the default group.
	allProps []int
}

// scratch holds one worker's reusable per-entry buffers: gathered
// weights, the continuous loss's working space, and the categorical
// vote tally. All are sized once from the dataset's maxima (observers
// per entry, categories per property), so per-entry slicing never
// reallocates.
type scratch struct {
	ws, vbuf, wbuf, votes []float64
}

func (s *solver) newScratch() *scratch {
	mo, mc := s.d.MaxEntryObservers(), 0
	for _, p := range s.prep.props {
		mc = max(mc, p.NumCats())
	}
	return &scratch{
		ws:    make([]float64, mo),
		vbuf:  make([]float64, mo),
		wbuf:  make([]float64, mo),
		votes: make([]float64, mc),
	}
}

func newSolver(p *Prepared, cfg Config) *solver {
	d := p.d
	K, M := d.NumSources(), d.NumProps()
	nEntries := d.NumEntries()
	s := &solver{
		prep:    p,
		d:       d,
		cfg:     cfg,
		workers: cfg.Workers,
		pool:    cfg.Pool,
		truths:  data.NewTableFor(p.d),
		groupOf: make([]int, M),
		cont:    cfg.ContinuousLoss.(loss.ContinuousKernel),
		cat:     cfg.CategoricalLoss.(loss.CategoricalKernel),
		scheme:  cfg.Scheme.(reg.Kernel),
		dists:   make([][]float64, nEntries),
		nsh:     numShards(nEntries),
	}
	if s.workers == 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.cat.NeedsDist() {
		// One contiguous arena holds every categorical entry's
		// distribution; the loss overwrites its view in place each
		// iteration instead of allocating a fresh slice per entry.
		var total int
		for _, pr := range p.props {
			total += pr.NumCats() * d.NumObjects()
		}
		s.distArena = make([]float64, total)
		off := 0
		for e := 0; e < nEntries; e++ {
			if pr := p.props[d.EntryProp(e)]; pr.Type == data.Categorical {
				nc := pr.NumCats()
				s.dists[e] = s.distArena[off : off+nc : off+nc]
				off += nc
			}
		}
	}
	nGroups := 1
	if cfg.PropertyGroups != nil {
		nGroups = len(cfg.PropertyGroups)
		for gi, g := range cfg.PropertyGroups {
			for _, m := range g {
				s.groupOf[m] = gi
			}
		}
	}
	s.weights = make([][]float64, nGroups)
	s.groupLosses = make([][]float64, nGroups)
	s.groupCounts = make([][]int, nGroups)
	for g := range s.weights {
		s.weights[g] = make([]float64, K)
		s.groupLosses[g] = make([]float64, K)
		s.groupCounts[g] = make([]int, K)
	}
	s.allProps = make([]int, M)
	for m := range s.allProps {
		s.allProps[m] = m
	}
	KM := K * M
	s.partSum = make([]float64, s.nsh*KM)
	s.partCnt = make([]int32, s.nsh*KM)
	s.lm = NewLossMatrix(K, M)
	s.scratches.New = func() any { return s.newScratch() }
	s.seq = s.newScratch()
	return s
}

// setUniformWeights resets every (group, source) weight to 1.
func (s *solver) setUniformWeights() {
	for g := range s.weights {
		for k := range s.weights[g] {
			s.weights[g][k] = 1
		}
	}
}

// pinKnown overwrites entries whose truths are supplied (semi-supervised
// operation). Pinned entries still contribute to source losses.
func (s *solver) pinKnown() {
	if s.cfg.KnownTruths == nil {
		return
	}
	s.cfg.KnownTruths.ForEach(func(e int, v data.Value) {
		s.truths.Set(e, v)
		// Hard truths have no soft distribution; probabilistic losses
		// degrade to 0-1 behaviour on pinned entries.
		s.dists[e] = nil
	})
}

// effectiveWorkers returns the worker budget actually engaged for this
// dataset: the configured budget clamped to the shard count (extra
// workers would have nothing to claim).
func (s *solver) effectiveWorkers() int {
	w := s.workers
	if w > s.nsh {
		w = s.nsh
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forShards runs fn once per shard of the entry range, in parallel up to
// the solver's worker budget. Shard boundaries depend only on the entry
// count (see numShards), and fn receives the shard index so per-shard
// partial results can be merged in shard order afterwards — the two
// properties that make every worker count produce bit-identical output.
// Shards are claimed dynamically (work stealing) which is safe precisely
// because the merge happens by shard index, not by completion order.
func (s *solver) forShards(fn func(sc *scratch, sh, lo, hi int)) {
	n := s.d.NumEntries()
	nsh := s.nsh
	w := s.effectiveWorkers()
	s.lastWorkers = w
	if w <= 1 {
		for sh := 0; sh < nsh; sh++ {
			lo, hi := shardBounds(n, sh, nsh)
			fn(s.seq, sh, lo, hi)
		}
		return
	}
	task := func(sh int) {
		sc := s.scratches.Get().(*scratch)
		lo, hi := shardBounds(n, sh, nsh)
		fn(sc, sh, lo, hi)
		s.scratches.Put(sc)
	}
	if s.pool != nil {
		s.pool.Do(nsh, w, task)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sh := int(next.Add(1) - 1)
				if sh >= nsh {
					return
				}
				task(sh)
			}
		}()
	}
	wg.Wait()
}

// gatherWeights fills sc.ws with the current weight of each source
// observing entry e (property m), in the entry's claim order. Runs once
// per entry per pass against preallocated scratch.
//
//crh:hotpath
func (s *solver) gatherWeights(sc *scratch, e, m int) []float64 {
	srcs := s.d.EntrySources(e)
	gw := s.weights[s.groupOf[m]]
	ws := sc.ws[:len(srcs)]
	for j, k := range srcs {
		ws[j] = gw[k]
	}
	return ws
}

// pass is one sweep of the entry range — the single parallel region of
// a solver iteration. With resolve set, each shard performs Step II on
// its entries (truthShard) and then, while they are still in cache, folds
// the same entries' deviations into its own partial loss matrix
// (accumulateShard); with resolve off it only folds, for a start from
// caller-supplied truths. The partials are merged in ascending shard
// order and combined per property group into groupLosses/groupCounts,
// which feed both this iteration's objective and the next weight update:
// once truths and distributions are fixed the losses do not depend on the
// weights. Shard boundaries depend only on the entry count, so every
// worker budget performs the same additions in the same order.
//
// When countChanges is set (only while a Trace is installed) it returns
// the number of entries whose truth estimate moved this pass; otherwise
// it returns 0 without comparing, keeping the untraced path free of the
// extra table reads.
func (s *solver) pass(resolve, countChanges bool) int {
	var perShard []int
	if countChanges {
		perShard = make([]int, s.nsh)
	}
	// The sequential path dispatches shards directly instead of through
	// forShards: a closure argument would escape to the heap and cost
	// one allocation per iteration, breaking the zero-steady-state pin.
	if s.effectiveWorkers() <= 1 {
		s.lastWorkers = 1
		n := s.d.NumEntries()
		for sh := 0; sh < s.nsh; sh++ {
			lo, hi := shardBounds(n, sh, s.nsh)
			s.passShard(s.seq, sh, lo, hi, resolve, perShard)
		}
	} else {
		s.forShards(func(sc *scratch, sh, lo, hi int) {
			s.passShard(sc, sh, lo, hi, resolve, perShard)
		})
	}

	KM := s.d.NumSources() * s.d.NumProps()
	sum, cnt := s.lm.Sum, s.lm.Cnt
	clear(sum)
	clear(cnt)
	for sh := 0; sh < s.nsh; sh++ {
		base := sh * KM
		for i := 0; i < KM; i++ {
			sum[i] += s.partSum[base+i]
		}
		for i := 0; i < KM; i++ {
			cnt[i] += s.partCnt[base+i]
		}
	}
	if s.cfg.PropertyGroups == nil {
		s.lm.Combine(s.groupLosses[0], s.groupCounts[0], s.allProps, &s.cfg)
	} else {
		for gi, g := range s.cfg.PropertyGroups {
			s.lm.Combine(s.groupLosses[gi], s.groupCounts[gi], g, &s.cfg)
		}
	}

	var changes int
	for _, n := range perShard {
		changes += n
	}
	return changes
}

// passShard is one shard's share of a pass over entries [lo, hi): the
// truth update when resolve is set, then the fold into the shard's own
// partial loss matrix, cleared first.
//
//crh:hotpath
func (s *solver) passShard(sc *scratch, sh, lo, hi int, resolve bool, perShard []int) {
	if resolve {
		s.truthShard(sc, sh, lo, hi, perShard)
	}
	KM := s.d.NumSources() * s.d.NumProps()
	lsum := s.partSum[sh*KM : (sh+1)*KM]
	lcnt := s.partCnt[sh*KM : (sh+1)*KM]
	clear(lsum)
	clear(lcnt)
	s.accumulateShard(lsum, lcnt, lo, hi)
}

// truthShard performs Step II on entries [lo, hi): the per-entry argmin
// under the current weights. Entries pinned by KnownTruths keep their
// known value and no distribution. A non-nil perShard counts the entries
// whose estimate moved into perShard[sh].
//
//crh:hotpath
func (s *solver) truthShard(sc *scratch, sh, lo, hi int, perShard []int) {
	for e := lo; e < hi; e++ {
		if s.cfg.KnownTruths != nil && s.cfg.KnownTruths.Has(e) {
			v, _ := s.cfg.KnownTruths.Get(e)
			s.truths.Set(e, v)
			s.dists[e] = nil
			continue
		}
		nv, ok := s.resolveEntry(sc, e)
		if !ok {
			continue
		}
		if perShard != nil {
			t := s.prep.props[s.d.EntryProp(e)].Type
			if old, ok := s.truths.Get(e); !ok || truthChanged(t, old, nv) {
				perShard[sh]++
			}
		}
		s.truths.Set(e, nv)
	}
}

// resolveEntry performs the Step II argmin for one unpinned entry: read
// its claims straight from the dataset's claim index, gather the
// observers' weights, and let the configured loss pick the minimizing
// estimate (Eq 7/9). ok is false when nobody observed the entry. This is
// the truth-update inner loop — it runs once per entry per iteration,
// and //crh:hotpath holds it and everything it calls to zero
// steady-state allocations; with the built-in kernels the whole update
// allocates nothing.
//
//crh:hotpath
func (s *solver) resolveEntry(sc *scratch, e int) (data.Value, bool) {
	m := s.d.EntryProp(e)
	if p := s.prep.props[m]; p.Type == data.Categorical {
		codes := s.d.EntryCodes(e)
		if len(codes) == 0 {
			return data.Value{}, false
		}
		ws := s.gatherWeights(sc, e, m)
		t, dist := s.cat.TruthCodes(codes, ws, sc.votes, s.dists[e], p)
		s.dists[e] = dist
		return data.Cat(t), true
	}
	vals := s.d.EntryFloats(e)
	if len(vals) == 0 {
		return data.Value{}, false
	}
	ws := s.gatherWeights(sc, e, m)
	return data.Float(s.cont.TruthBuf(vals, ws, sc.vbuf, sc.wbuf)), true
}

// truthChanged reports whether a truth update moved an entry's estimate:
// a different label for categorical entries, a shift beyond 1e-12 for
// continuous ones (exact float equality would misreport rounding noise).
func truthChanged(t data.Type, old, nv data.Value) bool {
	if t == data.Categorical {
		return old.C != nv.C
	}
	return math.Abs(old.F-nv.F) > 1e-12
}

// accumulateShard folds entries [lo, hi) into one shard's partial loss
// matrix (flattened [k*M+m]): each source's deviation from the current
// truth of every entry it observed (Eq 5/6). It is Step I's deviation
// accumulation, run by passShard right after the same entries' truth
// update — //crh:hotpath holds it and everything it calls to zero
// steady-state allocations.
//
//crh:hotpath
func (s *solver) accumulateShard(lsum []float64, lcnt []int32, lo, hi int) {
	d := s.d
	M := d.NumProps()
	for e := lo; e < hi; e++ {
		truth, ok := s.truths.Get(e)
		if !ok {
			continue
		}
		m := d.EntryProp(e)
		srcs := d.EntrySources(e)
		if p := s.prep.props[m]; p.Type == data.Categorical {
			dist := s.dists[e]
			codes := d.EntryCodes(e)
			tc := int(truth.C)
			for j, k := range srcs {
				i := int(k)*M + m
				lsum[i] += s.cat.Deviation(tc, dist, int(codes[j]), p)
				lcnt[i]++
			}
		} else {
			std := s.prep.entryStd[e]
			vals := d.EntryFloats(e)
			for j, k := range srcs {
				i := int(k)*M + m
				lsum[i] += s.cont.Deviation(truth.F, vals[j], std)
				lcnt[i]++
			}
		}
	}
}

// updateWeights performs Step I under the configured scheme, once per
// property group, from the losses of the last pass, writing into the
// reused weight buffers.
func (s *solver) updateWeights() {
	for g, l := range s.groupLosses {
		s.scheme.WeightsInto(s.weights[g], l, s.groupCounts[g])
	}
}

// objective evaluates Σ_g Σ_k w_gk · L_gk: the current weights against
// the normalized per-source losses of the last pass — the quantity whose
// stabilization we use as the convergence criterion.
func (s *solver) objective() float64 {
	var f float64
	for g, gl := range s.groupLosses {
		for k, l := range gl {
			f += s.weights[g][k] * l
		}
	}
	return f
}

// confidence computes each resolved entry's weighted support: the share
// of the observers' total weight backing the chosen truth (categorical:
// exact agreement; continuous: within one entry-spread). A unanimous
// entry scores 1; an entry carried by a narrow weighted majority scores
// near the majority's share.
func (s *solver) confidence() []float64 {
	d := s.d
	conf := make([]float64, d.NumEntries())
	s.forShards(func(_ *scratch, _, lo, hi int) {
		for e := lo; e < hi; e++ {
			truth, ok := s.truths.Get(e)
			if !ok {
				continue
			}
			m := d.EntryProp(e)
			categorical := s.prep.props[m].Type == data.Categorical
			gw := s.weights[s.groupOf[m]]
			srcs := d.EntrySources(e)
			var support, total float64
			if categorical {
				codes := d.EntryCodes(e)
				for j, k := range srcs {
					total += gw[k]
					if int32(codes[j]) == truth.C {
						support += gw[k]
					}
				}
			} else {
				std := loss.StdGuard(s.prep.entryStd[e])
				vals := d.EntryFloats(e)
				for j, k := range srcs {
					total += gw[k]
					if math.Abs(vals[j]-truth.F) <= std {
						support += gw[k]
					}
				}
			}
			if total > 0 {
				conf[e] = support / total
			} else if len(srcs) > 0 {
				// All observers carry zero weight: fall back to the
				// unweighted share.
				var n, agree float64
				if categorical {
					for _, code := range d.EntryCodes(e) {
						n++
						if int32(code) == truth.C {
							agree++
						}
					}
				} else {
					std := loss.StdGuard(s.prep.entryStd[e])
					for _, v := range d.EntryFloats(e) {
						n++
						if math.Abs(v-truth.F) <= std {
							agree++
						}
					}
				}
				conf[e] = agree / n
			}
		}
	})
	return conf
}
