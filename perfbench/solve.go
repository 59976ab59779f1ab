package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"github.com/crhkit/crh"
	"github.com/crhkit/crh/internal/core"
)

// solveInput is a solve-* workload's seeded dataset.
type solveInput struct {
	name     string
	generate func(seed int64) (*crh.Dataset, *crh.Table)
}

// stockInput: 100 symbols × 20 days = 2,000 objects, 16 properties (13
// categorical with large dictionaries), 55 sources, about 1.1 M claims.
var stockInput = solveInput{"stock", func(seed int64) (*crh.Dataset, *crh.Table) {
	return crh.GenerateStock(crh.StockOptions{Seed: seed, Symbols: 100, Days: 20})
}}

// bankInput: 12,000 rows × 16 properties, mostly continuous with small
// dictionaries, 8 sources, about 1.54 M claims.
var bankInput = solveInput{"bank", func(seed int64) (*crh.Dataset, *crh.Table) {
	return crh.GenerateBank(crh.UCIOptions{Seed: seed, Rows: 12000})
}}

const (
	// solveChildCmd is the first argument that turns this binary into
	// the solver process of a solve-* run.
	solveChildCmd = "solve-child"
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// minOps is the fewest timed operations behind a wall-time p90, so
	// that it has minTailSamples samples beyond it: every serve-ingest
	// run, and the solve loops of a traced solve-* run.
	minOps = 100
	// maxLoop stops a timed loop on a host too slow to reach minOps in
	// time; the p90 check then fails the run.
	maxLoop = 120 * time.Second
	// spinReps is how many calibration loops run before and after.
	spinReps = 5
)

// runSolve generates the workload's dataset, writes it as TSV, and runs
// the solver child on it setupReps times, each a fresh process that sees
// only the TSV file. Every child sets up and solves once; the last one
// also runs the timed loops. setup_s (set-up CPU time) and peak_rss_mb
// are medians over the children.
func runSolve(e env, in solveInput) (*report, error) {
	path := filepath.Join(e.work, in.name+".tsv")
	d, gt := in.generate(e.seed)
	if err := writeTSV(path, d, gt); err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the generated dataset is garbage now

	spin := spinSamples(spinReps)
	var (
		setupCPU, setupWall, peak []float64
		cr                        childReport
		firstFP                   string
		rep                       = newReport()
	)
	for i := 0; i < setupReps; i++ {
		var err error
		if cr, err = runSolveChild(e, path, i < setupReps-1); err != nil {
			return nil, err
		}
		rep.merge(cr.Tally)
		setupCPU = append(setupCPU, cr.SetupCPUMs/1e3)
		setupWall = append(setupWall, cr.SetupMs/1e3)
		peak = append(peak, float64(cr.PeakRSSKB)/1024)
		if i == 0 {
			firstFP = cr.Fingerprint
		} else {
			rep.check(cr.Fingerprint == firstFP, "solver process %d's first solve differs from process 1's", i+1)
		}
	}
	spin = append(spin, spinSamples(spinReps)...)

	wall := cr.OpMs
	cpuPerOp := sum(cr.OpCPUMs) / float64(len(cr.OpCPUMs))
	rep.e2e["setup_s"] = median(setupCPU)
	rep.e2e["peak_rss_mb"] = median(peak)
	rep.e2e["cpu_ms_per_op"] = cpuPerOp
	l := rep.layers
	for k, v := range cr.Layers {
		l[k] = v
	}
	l["wall.setup_s"] = median(setupWall)
	l["wall.ops_per_s"] = float64(len(wall)) / (sum(wall) / 1e3)
	l["wall.op_ms_p50"] = median(wall)
	l["host.spin_ms"] = median(spin)
	if e.trace {
		l["wall.op_ms_p90"] = tail90(&rep.tally, "solve", wall)
		l["trace.overhead_pct"] = overheadPct(cpuPerOp, sum(cr.TracedCPUMs)/float64(len(cr.TracedCPUMs)))
		rep.infof("spans: %s", e.spans)
	}
	q := cr.Quality
	rep.infof("%s: %d solves, %d iterations; wall p50 %s; wall setup samples %v s, peak RSS samples %v MB",
		in.name, len(wall), cr.Iterations, formatMs(median(wall)), roundAll(setupWall, 1), roundAll(peak, 1))
	rep.infof("quality: CRH error %.4f vs Voting %.4f; CRH MNAD %.4f vs Median %.4f",
		q.CRHError, q.VotingError, q.CRHMNAD, q.MedianMNAD)
	rep.infof("host.spin_ms %s", formatMs(median(spin)))
	return rep, nil
}

// runSolveChild runs one solver process on the TSV and returns its
// report. setupOnly stops it after set-up and the first solve.
func runSolveChild(e env, path string, setupOnly bool) (childReport, error) {
	var cr childReport
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, solveChildCmd,
		"-tsv", path,
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64),
		"-setup-only="+strconv.FormatBool(setupOnly),
		"-trace="+strconv.FormatBool(e.trace),
		"-spans", e.spans)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Run(); err != nil {
		return cr, fmt.Errorf("solver child: %v", err)
	}
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return cr, fmt.Errorf("solver child report: %v", err)
	}
	return cr, nil
}

// childReport is the solver child's single line of output.
type childReport struct {
	Tally       tally              `json:"tally"`
	SetupMs     float64            `json:"setup_ms"`
	SetupCPUMs  float64            `json:"setup_cpu_ms"`
	Fingerprint string             `json:"fingerprint"`
	OpMs        []float64          `json:"op_ms"`
	OpCPUMs     []float64          `json:"op_cpu_ms"`
	TracedCPUMs []float64          `json:"traced_cpu_ms,omitempty"`
	Iterations  int                `json:"iterations"`
	PeakRSSKB   int64              `json:"peak_rss_kb"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Quality     quality            `json:"quality"`
}

// quality compares CRH with the baselines on the ground truth.
type quality struct {
	CRHError    float64 `json:"crh_error"`
	VotingError float64 `json:"voting_error"`
	CRHMNAD     float64 `json:"crh_mnad"`
	MedianMNAD  float64 `json:"median_mnad"`
}

// solveChild is the solver process of a solve-* run: it sets up by
// reading the TSV (setup_s) and solves once; unless set-up only, it then
// solves back to back for the run's length, checks every solve against
// the first, and compares CRH with Voting and Median once, outside the
// timed window.
func solveChild(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet(solveChildCmd, flag.ContinueOnError)
	var (
		tsv       = fs.String("tsv", "", "dataset TSV file")
		seconds   = fs.Float64("seconds", 20, "measurement length in seconds")
		setupOnly = fs.Bool("setup-only", false, "stop after set-up and the first solve")
		traced    = fs.Bool("trace", false, "also run a traced pass and report per-layer metrics")
		spans     = fs.String("spans", "", "JSON Lines file for the traced pass's spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var (
		cr childReport
		t  tally
	)
	t0, c0 := time.Now(), processCPU()
	d, gt, err := readTSV(*tsv)
	cr.SetupMs, cr.SetupCPUMs = ms(time.Since(t0)), ms(processCPU()-c0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench solver: %v\n", err)
		return 1
	}
	first, err := crh.Run(d, crh.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench solver: first solve: %v\n", err)
		return 1
	}
	ref := fingerprintOf(first)
	cr.Fingerprint = ref.String()
	cr.Iterations = first.Iterations
	// Peak RSS is read here, after set-up and one solve — what reading a
	// TSV and solving it costs. The back-to-back solves that follow only
	// raise it by however far GC pacing lets the heap run ahead.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench solver: getrusage: %v\n", err)
		return 1
	}
	cr.PeakRSSKB = ru.Maxrss // kilobytes on Linux
	if !*setupOnly {
		window := time.Duration(*seconds * float64(time.Second))
		least := 1
		if *traced {
			least = minOps // for the wall.op_ms_p90 of the untraced pass
		}
		cr.OpMs, cr.OpCPUMs = solveLoop(d, window, least, ref, &t)
		if *traced {
			rec := newRecorder()
			layers := map[string]float64{}
			cr.TracedCPUMs = tracedSolveLoop(d, window, ref, &t, rec, layers)
			layers["data.build_ms"] = buildMs(d)
			cr.Layers = layers
			if err := rec.writeJSONL(*spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench solver: spans: %v\n", err)
				return 1
			}
		}
		cr.Quality = checkQuality(d, gt, first.Truths, &t)
	}
	cr.Tally = t
	line, err := json.Marshal(cr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench solver: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// solveLoop runs crh.Run with default options back to back until the
// window has passed and at least `least` solves are timed, checking each
// result against ref. It returns each solve's wall time and the CPU
// time the process used during it, both in ms.
func solveLoop(d *crh.Dataset, window time.Duration, least int, ref *fingerprint, t *tally) (wall, cpu []float64) {
	start := time.Now()
	for keepLooping(start, window, least, len(wall)) {
		t0, c0 := time.Now(), processCPU()
		res, err := crh.Run(d, crh.Options{})
		wall, cpu = append(wall, ms(time.Since(t0))), append(cpu, ms(processCPU()-c0))
		if t.check(err == nil, "solve %d: %v", len(wall), err) {
			t.check(ref.matches(res), "solve %d: truths or weights differ from the first solve", len(wall))
		}
	}
	return wall, cpu
}

// keepLooping reports whether a timed loop started at start, which must
// run for window and make at least least operations, should run another.
func keepLooping(start time.Time, window time.Duration, least, done int) bool {
	el := time.Since(start)
	return el < maxLoop && (done < least || el < window)
}

// tracedSolveLoop is solveLoop with the solver's layers timed (see
// tracedSolve). It returns the CPU time of each solve in ms and fills
// the core.* metrics with per-solve medians.
func tracedSolveLoop(d *crh.Dataset, window time.Duration, ref *fingerprint, t *tally, rec *recorder, layers map[string]float64) []float64 {
	var (
		cpu []float64
		cs  coreSamples
	)
	start := time.Now()
	for keepLooping(start, window, minOps, len(cpu)) {
		op := len(cpu) + 1
		c0 := processCPU()
		st, res, err := tracedSolve(d, rec, op)
		cpu = append(cpu, ms(processCPU()-c0))
		if t.check(err == nil, "traced solve %d: %v", op, err) {
			t.check(ref.matches(res), "traced solve %d: truths or weights differ from the untraced solves", op)
			cs.add(st, res)
		}
	}
	cs.fill(layers)
	return cpu
}

// coreSamples collects traced solves' layer times.
type coreSamples struct {
	prep, init, weight, truth, obj, iters, alloc []float64
}

func (c *coreSamples) add(st solveTimes, res *crh.Result) {
	c.prep = append(c.prep, ms(st.prepare))
	c.init = append(c.init, ms(st.init))
	c.weight = append(c.weight, ms(st.weight))
	c.truth = append(c.truth, ms(st.truth))
	c.obj = append(c.obj, ms(st.objective))
	c.iters = append(c.iters, float64(res.Iterations))
	c.alloc = append(c.alloc, float64(st.allocBytes)/(1<<20))
}

// fill sets the core.* metrics to the per-solve medians.
func (c *coreSamples) fill(layers map[string]float64) {
	layers["core.prepare_ms"] = median(c.prep)
	layers["core.init_ms"] = median(c.init)
	layers["core.weight_ms"] = median(c.weight)
	layers["core.truth_ms"] = median(c.truth)
	layers["core.objective_ms"] = median(c.obj)
	layers["core.iterations"] = median(c.iters)
	layers["core.alloc_mb"] = median(c.alloc)
}

// solveTimes is one traced solve's layer breakdown.
type solveTimes struct {
	total, prepare, init, weight, truth, objective time.Duration
	allocBytes                                     uint64
}

// tracedSolve runs core.Prepare and Prepared.Run with a trace hook —
// the same work as crh.Run — and times the freeze, the init pass, and
// each iteration's weight, truth and objective phases, plus the heap
// bytes the solve allocates. It records the solve's spans under op.
func tracedSolve(d *crh.Dataset, rec *recorder, op int) (solveTimes, *crh.Result, error) {
	type iterEnd struct {
		it  crh.IterationTrace
		end time.Time
	}
	var (
		st    solveTimes
		ends  []iterEnd
		m0    runtime.MemStats
		m1    runtime.MemStats
		trace = crh.TraceFunc(func(it crh.IterationTrace) { ends = append(ends, iterEnd{it, time.Now()}) })
	)
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p := core.Prepare(d)
	t1 := time.Now()
	res, err := p.Run(crh.Options{Trace: trace})
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	st.total, st.prepare = t2.Sub(t0), t1.Sub(t0)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	root := rec.add("solve", 0, op, t0, t2)
	rec.add("core.prepare", root, op, t0, t1)
	run := rec.add("core.run", root, op, t1, t2)
	if err != nil {
		return st, nil, err
	}
	var iterSum time.Duration
	for _, it := range res.IterTime {
		iterSum += it
	}
	st.init = t2.Sub(t1) - iterSum
	rec.add("core.init", run, op, t1, t1.Add(st.init))
	for i, e := range ends {
		it := e.it
		st.weight += it.WeightPhase
		st.truth += it.TruthPhase
		st.objective += it.ObjectivePhase
		if i >= len(res.IterTime) {
			continue
		}
		s := e.end.Add(-res.IterTime[i])
		id := rec.add("core.iteration", run, op, s, e.end)
		w, tr := s.Add(it.WeightPhase), s.Add(it.WeightPhase+it.TruthPhase)
		rec.add("core.weight", id, op, s, w)
		rec.add("core.truth", id, op, w, tr)
		rec.add("core.objective", id, op, tr, tr.Add(it.ObjectivePhase))
	}
	return st, res, nil
}

// fingerprint is a solve's output as exact bits.
type fingerprint struct {
	set     []bool
	vals    []uint64
	cats    []int32
	weights []uint64
}

func fingerprintOf(res *crh.Result) *fingerprint {
	n := res.Truths.Len()
	fp := &fingerprint{set: make([]bool, n), vals: make([]uint64, n), cats: make([]int32, n)}
	for e := 0; e < n; e++ {
		v, ok := res.Truths.Get(e)
		fp.set[e], fp.vals[e], fp.cats[e] = ok, math.Float64bits(v.F), v.C
	}
	for _, w := range res.Weights {
		fp.weights = append(fp.weights, math.Float64bits(w))
	}
	return fp
}

// String is a hash of the fingerprint, for comparing solves across
// processes.
func (fp *fingerprint) String() string {
	h := fnv.New64a()
	var b [8]byte
	for e, ok := range fp.set {
		if ok {
			binary.LittleEndian.PutUint64(b[:], fp.vals[e])
			h.Write(b[:])
			binary.LittleEndian.PutUint32(b[:4], uint32(fp.cats[e]))
			h.Write(b[:4])
		}
	}
	for _, w := range fp.weights {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// matches reports whether res has exactly the fingerprinted truths and
// weights, compared bit for bit.
func (fp *fingerprint) matches(res *crh.Result) bool {
	if res.Truths.Len() != len(fp.set) || len(res.Weights) != len(fp.weights) {
		return false
	}
	for e := range fp.set {
		v, ok := res.Truths.Get(e)
		if ok != fp.set[e] || math.Float64bits(v.F) != fp.vals[e] || v.C != fp.cats[e] {
			return false
		}
	}
	for k, w := range res.Weights {
		if math.Float64bits(w) != fp.weights[k] {
			return false
		}
	}
	return true
}

// checkQuality checks, on the generated ground truth, that CRH's error
// rate beats Voting's and its MNAD beats Median's.
func checkQuality(d *crh.Dataset, gt, truths *crh.Table, t *tally) quality {
	var q quality
	if !t.check(gt != nil, "dataset has no ground truth") {
		return q
	}
	c := crh.Evaluate(d, truths, gt)
	q.CRHError, q.CRHMNAD = c.ErrorRate, c.MNAD
	if m, ok := crh.BaselineByName("Voting"); t.check(ok, "no Voting baseline") {
		out, _ := m.Resolve(d)
		q.VotingError = crh.Evaluate(d, out, gt).ErrorRate
	}
	if m, ok := crh.BaselineByName("Median"); t.check(ok, "no Median baseline") {
		out, _ := m.Resolve(d)
		q.MedianMNAD = crh.Evaluate(d, out, gt).MNAD
	}
	t.check(q.CRHError < q.VotingError, "CRH error rate %.4f does not beat Voting's %.4f", q.CRHError, q.VotingError)
	t.check(q.CRHMNAD < q.MedianMNAD, "CRH MNAD %.4f does not beat Median's %.4f", q.CRHMNAD, q.MedianMNAD)
	return q
}

// buildMs is the median time, over setupReps repetitions, to build d
// from its flattened claims through data.Builder: interning every
// source, property, object and category, observing every claim, Build.
func buildMs(d *crh.Dataset) float64 {
	sc, log := absorbLog(d)
	out := make([]float64, setupReps)
	for i := range out {
		t0 := time.Now()
		buildLog(sc, log, 0)
		out[i] = ms(time.Since(t0))
	}
	return median(out)
}

// writeTSV writes a dataset and its ground truth in the library's TSV
// format.
func writeTSV(path string, d *crh.Dataset, gt *crh.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := crh.WriteDataset(f, d, gt); err != nil {
		//lint:ignore errflow already failing; the write error is the one to report
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readTSV decodes a TSV file: the user's ingest path.
func readTSV(path string) (*crh.Dataset, *crh.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errflow f is opened read-only; close cannot lose buffered writes
	defer f.Close()
	return crh.ReadDataset(bufio.NewReaderSize(f, 1<<20))
}

// dieWithParent makes a child process receive SIGKILL if the benchmark
// dies first, so an interrupted run leaves no solver or crhd behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// roundAll scales xs by 1/div and rounds to three decimals, for info
// lines.
func roundAll(xs []float64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x/div*1e3) / 1e3
	}
	return out
}
