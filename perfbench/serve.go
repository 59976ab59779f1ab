package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/crhkit/crh"
)

const (
	// datasetName is the dataset the serve-* workloads create.
	datasetName = "bench"
	// cyclesPerSecond sets serve-ingest's fixed cycle count from
	// --seconds (at least minOps): every run of one length ends at the
	// same dataset size.
	cyclesPerSecond = 15
	// readRate is serve-read's open-loop arrival rate (resolves/s).
	readRate = 300
	// readConns bounds serve-read's connections and requests in flight.
	readConns = 2
	// refSolves is how many in-process traced solves a serve-* traced
	// run times for its core.* metrics.
	refSolves = 5
)

// readVariants are the resolve bodies serve-read rotates through: the
// five option variants of cmd/crhload, each its own cache entry.
var readVariants = []string{
	`{}`,
	`{"options":{"weights":"exp-sum"}}`,
	`{"options":{"confidence":true}}`,
	`{"options":{"continuous_loss":"squared","weights":"exp-sum"}}`,
	`{"method":"Median"}`,
}

// serveInput is the data both serve-* workloads share: a seeded Stock
// dataset (20 symbols × 10 days) as TSV and two in-process solves of
// it. d is the TSV decoded as crh.ReadDataset does, interning
// categories in file order; crhdD holds the same claims rebuilt in the
// object-major order crhd's registry interns them in. crhd's version-1
// resolve must match the solve of crhdD bit for bit. Its differences
// from the solve of d are reported, not checked: tie-breaking by
// category code makes the solver depend on interning order (README.md).
type serveInput struct {
	tsv          []byte
	d, crhdD     *crh.Dataset
	fileRef, ref *crh.Result
}

func newServeInput(seed int64) (*serveInput, error) {
	d, gt := crh.GenerateStock(crh.StockOptions{Seed: seed, Symbols: 20, Days: 10})
	var buf bytes.Buffer
	if err := crh.WriteDataset(&buf, d, gt); err != nil {
		return nil, err
	}
	in := &serveInput{tsv: buf.Bytes()}
	var err error
	if in.d, _, err = crh.ReadDataset(bytes.NewReader(in.tsv)); err != nil {
		return nil, err
	}
	sc, log := absorbLog(in.d)
	in.crhdD = buildLog(sc, log, 0)
	if in.fileRef, err = crh.Run(in.d, crh.Options{}); err != nil {
		return nil, err
	}
	if in.ref, err = crh.Run(in.crhdD, crh.Options{}); err != nil {
		return nil, err
	}
	return in, nil
}

// crhdProc is a running crhd subprocess. Its stderr is read by one
// goroutine that reports the listen address and keeps the -stage-log
// records; stop ends both.
type crhdProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stderr reaches EOF
	// stageLines holds the raw stage-log records; read it only after
	// done is closed.
	stageLines [][]byte
}

// startCrhd starts crhd on an ephemeral loopback port and waits until
// it listens.
func startCrhd(bin string, args ...string) (*crhdProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("no crhd binary given (-crhd)")
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = dieWithParent()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &crhdProc{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1) // one listen line; never blocks the reader
	go p.readLog(stderr, ready)
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case addr := <-ready:
		p.base = "http://" + addr
		return p, nil
	case <-p.done:
		_ = cmd.Wait() // exited already; the missing listen line is the error
		return nil, fmt.Errorf("crhd exited before listening")
	case <-timeout.C:
		_ = cmd.Process.Kill() // unresponsive; the timeout is the error
		<-p.done
		_ = cmd.Wait() // reaps the killed process
		return nil, fmt.Errorf("crhd did not listen within 30s")
	}
}

func (p *crhdProc) readLog(r io.Reader, ready chan<- string) {
	defer close(p.done)
	const listening = "crhd: listening on "
	stage := []byte(`"msg":"resolve stages"`)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if addr, ok := bytes.CutPrefix(line, []byte(listening)); ok {
			ready <- string(addr)
		} else if bytes.Contains(line, stage) {
			p.stageLines = append(p.stageLines, append([]byte(nil), line...))
		}
	}
	_, _ = io.Copy(io.Discard, r) // drain after an over-long line so crhd never blocks
}

// stop shuts crhd down (SIGTERM, then SIGKILL after 10 s), waits for it,
// and returns its peak resident set size in kilobytes and the CPU time
// (user plus system) it used.
func (p *crhdProc) stop() (int64, time.Duration, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if crhd already exited; Wait reports that
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case <-p.done:
	case <-timeout.C:
		_ = p.cmd.Process.Kill() // shutdown hung; Wait reports it
		<-p.done
	}
	err := p.cmd.Wait()
	ru, _ := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return 0, 0, fmt.Errorf("crhd: no resource usage")
	}
	return ru.Maxrss, rusageCPU(ru), err
}

// stageRecords decodes the stage-log records; call after stop.
func (p *crhdProc) stageRecords() ([]stageRecord, error) {
	out := make([]stageRecord, len(p.stageLines))
	for i, l := range p.stageLines {
		if err := json.Unmarshal(l, &out[i]); err != nil {
			return nil, fmt.Errorf("stage log: %v", err)
		}
	}
	return out, nil
}

// client issues HTTP requests to one crhd over at most conns
// connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

// do sends one request and reads the whole response body into buf. A
// non-2xx status is an error.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read; the read error is the one that matters
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, buf.Bytes())
	}
	return nil
}

func (c *client) getJSON(path string, v any) error {
	var buf bytes.Buffer
	if err := c.do("GET", path, nil, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

func (c *client) exposition() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := c.do("GET", "/metrics", nil, &buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.Bytes()), nil
}

// server is a crhd holding the benchmark dataset.
type server struct {
	proc *crhdProc
	c    *client
}

// startServer starts crhd with args and creates the dataset from the
// TSV.
func startServer(bin string, tsv []byte, conns int, args ...string) (*server, error) {
	p, err := startCrhd(bin, args...)
	if err != nil {
		return nil, err
	}
	s := &server{proc: p, c: newClient(p.base, conns)}
	var buf bytes.Buffer
	if err := s.c.do("POST", "/v1/datasets/"+datasetName, tsv, &buf); err != nil {
		_, _, _ = s.stop() // already failing; the create error is the one to report
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and returns crhd's peak RSS in kilobytes
// and the CPU time it used.
func (s *server) stop() (int64, time.Duration, error) {
	s.c.tr.CloseIdleConnections()
	return s.proc.stop()
}

// servedPhase is what both serve workloads measure around crhd.
type servedPhase struct {
	tally
	// setupCPU and setupWall are the set-up samples in seconds: crhd's
	// CPU time and the wall time from process start through prepare.
	setupCPU, setupWall []float64
	// peakKB is the measured crhd's peak RSS; timedCPUMs the CPU time it
	// used after set-up (its total less the median set-up CPU).
	peakKB        int64
	timedCPUMs    float64
	fileDiff      fileOrderDiff
	before, after serverCounters
	stages        []stageRecord
}

// runServed starts setupReps set-up-only crhd instances and then the
// measured one, each from scratch: start, create the dataset, prepare.
// Set-up-only instances then stop, and their CPU and wall times are the
// set-up samples; the measured instance runs timed between two counter
// reads before it stops. durable gives each instance its own -data-dir.
func runServed(e env, in *serveInput, ph *servedPhase, conns int, durable bool, args []string,
	prepare func(*server) error, timed func(*server)) error {
	for i := 0; i <= setupReps; i++ {
		a := args
		if durable {
			dir, err := os.MkdirTemp(e.work, "data-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			a = append([]string{"-data-dir", dir}, args...)
		}
		t0 := time.Now()
		s, err := startServer(e.crhd, in.tsv, conns, a...)
		if err != nil {
			return err
		}
		err = prepare(s)
		wall := time.Since(t0)
		measured := i == setupReps
		if err == nil && measured {
			if ph.before, err = readCounters(s.c); err == nil {
				timed(s)
				ph.after, err = readCounters(s.c)
			}
		}
		peak, cpu, stopErr := s.stop()
		if err != nil {
			return err
		}
		if stopErr != nil {
			return fmt.Errorf("crhd shutdown: %v", stopErr)
		}
		if !measured {
			ph.setupCPU = append(ph.setupCPU, cpu.Seconds())
			ph.setupWall = append(ph.setupWall, wall.Seconds())
			continue
		}
		ph.peakKB = peak
		ph.timedCPUMs = ms(cpu) - median(ph.setupCPU)*1e3
		ph.stages, err = s.proc.stageRecords()
		return err
	}
	return nil
}

// servedE2E fills the end-to-end metrics both serve workloads share.
func servedE2E(rep *report, ph *servedPhase, ops int) {
	rep.e2e["setup_s"] = median(ph.setupCPU)
	rep.e2e["peak_rss_mb"] = float64(ph.peakKB) / 1024
	rep.e2e["cpu_ms_per_op"] = ph.timedCPUMs / float64(ops)
}

// fileOrderDiff is how crhd's version-1 resolve differs from the
// in-process solve of the file-order decode of the same TSV.
type fileOrderDiff struct {
	weightsMaxRel float64
	truthsDiffer  int
}

// checkVersion1 resolves `{}` on the freshly created dataset and checks
// that its truths and weights equal, bit for bit, the in-process solve
// of the dataset in crhd's interning order. It returns the response
// body and the differences from the file-order solve.
func checkVersion1(s *server, in *serveInput, t *tally) ([]byte, fileOrderDiff, error) {
	var (
		buf  bytes.Buffer
		doc  resolveDoc
		diff fileOrderDiff
	)
	if err := s.c.do("POST", "/v1/datasets/"+datasetName+"/resolve", []byte(readVariants[0]), &buf); err != nil {
		return nil, diff, err
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, diff, err
	}
	n, differ, first := truthDiff(in.crhdD, in.ref, &doc)
	t.check(differ == 0, "version-1 truths: %d of %d differ from the in-process solve: %v", differ, n, first)
	_, wDiffer := weightDiff(in.crhdD, in.ref, &doc)
	t.check(wDiffer == 0, "version-1 weights: %d differ from the in-process solve", wDiffer)
	t.check(doc.Version == 1, "version-1 resolve reports version %d", doc.Version)
	diff.weightsMaxRel, _ = weightDiff(in.d, in.fileRef, &doc)
	_, diff.truthsDiffer, _ = truthDiff(in.d, in.fileRef, &doc)
	return buf.Bytes(), diff, nil
}

// serverCounters are the crhd counters read around a timed phase.
type serverCounters struct {
	stats statsDoc
	expo  map[string]float64
}

func readCounters(c *client) (serverCounters, error) {
	var sc serverCounters
	if err := c.getJSON("/v1/stats", &sc.stats); err != nil {
		return sc, err
	}
	var err error
	sc.expo, err = c.exposition()
	return sc, err
}

// serverLayers fills the server.*, wal.* and stream.chunks metrics from
// the counters read before and after a timed phase.
func serverLayers(layers map[string]float64, before, after serverCounters) {
	stageMs, hit := statsDelta(before.stats, after.stats)
	for _, name := range stageNames {
		layers["server."+name+"_ms"] = stageMs[name]
	}
	layers["server.cache_hit_ratio"] = hit
	delta := func(series string) float64 { return after.expo[series] - before.expo[series] }
	layers["stream.chunks"] = delta("crh_stream_chunks_total")
	layers["wal.append_kb"] = delta("crhd_wal_append_bytes_total") / 1024
	layers["wal.snapshots"] = delta("crhd_wal_snapshots_total")
}

// attachStages records crhd's per-request stage durations as child
// spans of the matching client resolve spans. The stage log's records
// after the first skip (set-up resolves) are matched to spans by order;
// a stage's duration is exact, its offset inside the request is the sum
// of the stages before it.
func attachStages(rec *recorder, recs []stageRecord, skip int, spans []int) {
	if skip > len(recs) {
		return
	}
	for i, r := range recs[skip:] {
		if i >= len(spans) || spans[i] == 0 {
			return
		}
		parent := rec.spans[spans[i]-1]
		at := rec.t0.Add(time.Duration(parent.Start))
		for j, d := range r.stages() {
			if d <= 0 {
				continue
			}
			end := at.Add(time.Duration(d))
			rec.add("server."+stageNames[j], parent.ID, parent.Op, at, end)
			at = end
		}
	}
}

// refSolveLayers times refSolves traced in-process solves of d for the
// core.* metrics and data.build_ms. Their spans take op ids after
// firstOp.
func refSolveLayers(layers map[string]float64, d *crh.Dataset, rec *recorder, firstOp int, t *tally) {
	var cs coreSamples
	for i := 0; i < refSolves; i++ {
		st, res, err := tracedSolve(d, rec, firstOp+i)
		if t.check(err == nil, "in-process traced solve: %v", err) {
			cs.add(st, res)
		}
	}
	cs.fill(layers)
	layers["data.build_ms"] = buildMs(d)
}

// readPhase is one serve-read measurement: set-up, warm-up, and the
// open-loop timed phase.
type readPhase struct {
	servedPhase
	sent         int
	lat, late    []float64 // ms, per completed request
	kb           []float64 // response size per request
	opsPerSec    float64
	resolveSpans []int // span per resolve in completion order (traced)
}

// runServeRead measures cached resolve reads: an in-memory crhd with the
// five option variants warmed, then open-loop resolves at readRate.
func runServeRead(e env) (*report, error) {
	in, err := newServeInput(e.seed)
	if err != nil {
		return nil, err
	}
	spin := spinSamples(spinReps)
	a, err := readOnce(e, in, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.merge(a.tally)
	servedE2E(rep, &a.servedPhase, a.sent)
	wallP90 := windowedP90(&rep.tally, a.lat, readRate)
	l := rep.layers
	l["wall.setup_s"] = median(a.setupWall)
	l["wall.ops_per_s"] = a.opsPerSec
	l["wall.op_ms_p50"] = median(a.lat)
	l["wall.op_ms_p90"] = wallP90
	if e.trace {
		rec := newRecorder()
		b, err := readOnce(e, in, rec)
		if err != nil {
			return nil, err
		}
		rep.merge(b.tally)
		serverLayers(l, b.before, b.after)
		attachStages(rec, b.stages, len(readVariants), b.resolveSpans)
		l["http.resolve_ms"] = median(b.lat)
		l["http.resolve_kb"] = sum(b.kb) / float64(len(b.kb))
		l["loadgen.late_ms_p90"], _ = quantile(b.late, 0.9)
		l["trace.overhead_pct"] = overheadPct(a.timedCPUMs/float64(a.sent), b.timedCPUMs/float64(b.sent))
		l["check.weights_max_rel_diff"] = b.fileDiff.weightsMaxRel
		l["check.truths_differ"] = float64(b.fileDiff.truthsDiffer)
		refSolveLayers(l, in.d, rec, len(b.lat)+1, &rep.tally)
		if err := rec.writeJSONL(e.spans); err != nil {
			return nil, err
		}
		rep.infof("spans: %s", e.spans)
	}
	spin = append(spin, spinSamples(spinReps)...)
	l["host.spin_ms"] = median(spin)
	late, _ := quantile(a.late, 0.9)
	rep.infof("serve-read: %d resolves at %d/s; wall p50 %s, p90 %s (windowed), late p90 %s; wall setup samples %v s",
		len(a.lat), readRate, formatMs(median(a.lat)), formatMs(wallP90), formatMs(late), roundAll(a.setupWall, 1))
	rep.infof("crhd vs file-order in-process solve: weights_max_rel_diff %.3g, %d truths differ (see README.md)",
		a.fileDiff.weightsMaxRel, a.fileDiff.truthsDiffer)
	rep.infof("host.spin_ms %s", formatMs(median(spin)))
	return rep, nil
}

// readOnce runs one serve-read phase on fresh in-memory crhd instances;
// rec non-nil makes it the traced phase (crhd -stage-log 1, spans
// recorded).
func readOnce(e env, in *serveInput, rec *recorder) (*readPhase, error) {
	var args []string
	if rec != nil {
		args = []string{"-stage-log", "1"}
	}
	ph := &readPhase{}
	var refs [][]byte
	err := runServed(e, in, &ph.servedPhase, readConns, false, args,
		func(s *server) error {
			var err error
			refs, err = warmVariants(s, in, &ph.servedPhase)
			return err
		},
		func(s *server) { openLoop(s.c, refs, e, ph, rec) })
	if err != nil {
		return nil, err
	}
	if rec != nil {
		ph.check(len(ph.stages) == len(readVariants)+len(ph.lat),
			"stage log has %d records for %d resolves", len(ph.stages), len(readVariants)+len(ph.lat))
	}
	return ph, nil
}

// warmVariants resolves each option variant once (cold) and returns
// each response's body after the serving flags, the reference every
// later hit must equal byte for byte. The `{}` variant is also checked
// against the in-process solve.
func warmVariants(s *server, in *serveInput, ph *servedPhase) ([][]byte, error) {
	refs := make([][]byte, len(readVariants))
	for i, v := range readVariants {
		var body []byte
		if i == 0 {
			b, diff, err := checkVersion1(s, in, &ph.tally)
			if err != nil {
				return nil, err
			}
			body, ph.fileDiff = b, diff
		} else {
			var buf bytes.Buffer
			if err := s.c.do("POST", "/v1/datasets/"+datasetName+"/resolve", []byte(v), &buf); err != nil {
				return nil, err
			}
			body = buf.Bytes()
		}
		rest, cached, ok := stripFlags(body)
		ph.check(ok && !cached, "warm resolve %s: want a fresh computation with the flag envelope", v)
		refs[i] = rest
	}
	return refs, nil
}

// readResult is one open-loop request's outcome.
type readResult struct {
	lat, late time.Duration
	size      int
	seq       int64 // completion order
	span      int
	err       error
}

// openLoop sends resolves at readRate for the run's length over at most
// readConns connections, each a seeded choice of variant. Latency runs
// from each request's scheduled send time, so a stall also delays the
// requests queued behind it; late is how far dispatch trailed the
// schedule.
func openLoop(c *client, refs [][]byte, e env, ph *readPhase, rec *recorder) {
	n := int(e.seconds * readRate)
	ph.sent = n
	variants := readSchedule(e.seed, n)
	path := "/v1/datasets/" + datasetName + "/resolve"
	interval := time.Second / readRate
	results := make([]readResult, n)
	type job struct {
		i     int
		sched time.Time
	}
	jobs := make(chan job) // unbuffered: a busy pair of workers delays dispatch
	var (
		seq atomic.Int64
		mu  sync.Mutex // guards rec
		wg  sync.WaitGroup
	)
	for w := 0; w < readConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				v := variants[j.i]
				disp := time.Now()
				err := c.do("POST", path, []byte(readVariants[v]), &buf)
				done := time.Now()
				r := readResult{lat: done.Sub(j.sched), late: disp.Sub(j.sched), size: buf.Len(), seq: seq.Add(1), err: err}
				if err == nil {
					rest, _, ok := stripFlags(buf.Bytes())
					if !ok || !bytes.Equal(rest, refs[v]) {
						r.err = fmt.Errorf("variant %d: body differs from its first response", v)
					}
				}
				if rec != nil {
					mu.Lock()
					root := rec.add("read", 0, j.i+1, j.sched, done)
					rec.add("loadgen.wait", root, j.i+1, j.sched, disp)
					r.span = rec.add("http.resolve", root, j.i+1, disp, done)
					mu.Unlock()
				}
				results[j.i] = r
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i, sched}
	}
	close(jobs)
	wg.Wait()

	var last time.Time
	byDone := make([]int, n) // resolve span per completion rank
	for i, r := range results {
		if ph.check(r.err == nil, "resolve %d: %v", i+1, r.err) {
			ph.lat = append(ph.lat, ms(r.lat))
			ph.late = append(ph.late, ms(r.late))
			ph.kb = append(ph.kb, float64(r.size)/1024)
		}
		if done := start.Add(time.Duration(i) * interval).Add(r.lat); done.After(last) {
			last = done
		}
		byDone[r.seq-1] = r.span
	}
	ph.opsPerSec = float64(len(ph.lat)) / last.Sub(start).Seconds()
	ph.resolveSpans = byDone
}

// windowedP90 is the median, over consecutive windows of perWindow
// requests (one second of arrivals), of each window's p90. A burst of
// host contention moves the p90 of the seconds it hits, not the median
// of them. Each window needs minTailSamples samples beyond its p90.
func windowedP90(t *tally, lat []float64, perWindow int) float64 {
	var p90s []float64
	for i := 0; i+perWindow <= len(lat); i += perWindow {
		p90s = append(p90s, tail90(t, "resolve window", lat[i:i+perWindow]))
	}
	t.check(len(p90s) > 0, "%d resolves fill no %d-request window", len(lat), perWindow)
	return median(p90s)
}

// readSchedule is serve-read's seeded sequence of variant indices.
func readSchedule(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(len(readVariants))
	}
	return out
}

// ingestPhase is one serve-ingest measurement.
type ingestPhase struct {
	servedPhase
	cycle, ingest, incr, resl []float64 // ms per cycle
	resolveKB                 []float64
	resolveSpans              []int
}

// runServeIngest measures live ingest: a durable crhd (-fsync off,
// default snapshot cadence) and one closed-loop client repeating
// ingest, incremental, resolve for a fixed number of cycles.
func runServeIngest(e env) (*report, error) {
	in, err := newServeInput(e.seed)
	if err != nil {
		return nil, err
	}
	cycles := max(minOps, int(e.seconds*cyclesPerSecond))
	batches, err := makeBatches(in.d, e.seed, cycles)
	if err != nil {
		return nil, err
	}
	spin := spinSamples(spinReps)
	a, err := ingestOnce(e, in, batches, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.merge(a.tally)
	servedE2E(rep, &a.servedPhase, len(batches))
	wallP90 := tail90(&rep.tally, "cycle", a.cycle)
	l := rep.layers
	l["wall.setup_s"] = median(a.setupWall)
	l["wall.ops_per_s"] = float64(len(a.cycle)) / (sum(a.cycle) / 1e3)
	l["wall.op_ms_p50"] = median(a.cycle)
	l["wall.op_ms_p90"] = wallP90
	if e.trace {
		rec := newRecorder()
		b, err := ingestOnce(e, in, batches, rec)
		if err != nil {
			return nil, err
		}
		rep.merge(b.tally)
		serverLayers(l, b.before, b.after)
		attachStages(rec, b.stages, 1, b.resolveSpans)
		l["http.ingest_ms"] = median(b.ingest)
		l["http.incremental_ms"] = median(b.incr)
		l["http.resolve_ms"] = median(b.resl)
		l["http.resolve_kb"] = sum(b.resolveKB) / float64(len(b.resolveKB))
		l["trace.overhead_pct"] = overheadPct(a.timedCPUMs, b.timedCPUMs)
		l["check.weights_max_rel_diff"] = b.fileDiff.weightsMaxRel
		l["check.truths_differ"] = float64(b.fileDiff.truthsDiffer)
		replayIngest(l, in.d, batches, rec, len(batches)+1, &rep.tally)
		l["data.build_ms"] = buildMs(in.d)
		if err := rec.writeJSONL(e.spans); err != nil {
			return nil, err
		}
		rep.infof("spans: %s", e.spans)
	}
	spin = append(spin, spinSamples(spinReps)...)
	l["host.spin_ms"] = median(spin)
	rep.infof("serve-ingest: %d cycles; wall p50 %s, p90 %s; ingest p50 %s, incremental p50 %s, resolve p50 %s; wall setup samples %v s",
		len(a.cycle), formatMs(median(a.cycle)), formatMs(wallP90), formatMs(median(a.ingest)),
		formatMs(median(a.incr)), formatMs(median(a.resl)), roundAll(a.setupWall, 1))
	rep.infof("crhd vs file-order in-process solve: weights_max_rel_diff %.3g, %d truths differ (see README.md)",
		a.fileDiff.weightsMaxRel, a.fileDiff.truthsDiffer)
	rep.infof("host.spin_ms %s", formatMs(median(spin)))
	return rep, nil
}

// ingestOnce runs one serve-ingest phase on fresh durable crhd
// instances; rec non-nil makes it the traced phase.
func ingestOnce(e env, in *serveInput, batches []batch, rec *recorder) (*ingestPhase, error) {
	args := []string{"-fsync", "off"}
	if rec != nil {
		args = append(args, "-stage-log", "1")
	}
	ph := &ingestPhase{}
	err := runServed(e, in, &ph.servedPhase, 1, true, args,
		func(s *server) error {
			var err error
			_, ph.fileDiff, err = checkVersion1(s, in, &ph.tally)
			return err
		},
		func(s *server) { ingestCycles(s.c, batches, ph, rec) })
	if err != nil {
		return nil, err
	}
	chunks := ph.after.expo["crh_stream_chunks_total"] - ph.before.expo["crh_stream_chunks_total"]
	ph.check(int(chunks) == len(batches), "stream.chunks grew by %v over %d ingests", chunks, len(batches))
	if rec != nil {
		ph.check(len(ph.stages) == 1+len(batches), "stage log has %d records for %d resolves", len(ph.stages), 1+len(batches))
	}
	return ph, nil
}

// ingestCycles runs the closed loop: per batch, POST it, GET
// /incremental, POST resolve {}. Each request's response is checked
// after the cycle's timing ends.
func ingestCycles(c *client, batches []batch, ph *ingestPhase, rec *recorder) {
	base := "/v1/datasets/" + datasetName
	var ingBuf, incBuf, resBuf bytes.Buffer
	version := int64(1)
	for i, b := range batches {
		op := i + 1
		t0 := time.Now()
		ingErr := c.do("POST", base+"/observations", b.body, &ingBuf)
		t1 := time.Now()
		incErr := c.do("GET", base+"/incremental", nil, &incBuf)
		t2 := time.Now()
		resErr := c.do("POST", base+"/resolve", []byte(`{}`), &resBuf)
		t3 := time.Now()

		ph.cycle = append(ph.cycle, ms(t3.Sub(t0)))
		ph.ingest = append(ph.ingest, ms(t1.Sub(t0)))
		ph.incr = append(ph.incr, ms(t2.Sub(t1)))
		ph.resl = append(ph.resl, ms(t3.Sub(t2)))
		ph.resolveKB = append(ph.resolveKB, float64(resBuf.Len())/1024)
		if rec != nil {
			root := rec.add("cycle", 0, op, t0, t3)
			rec.add("http.ingest", root, op, t0, t1)
			rec.add("http.incremental", root, op, t1, t2)
			ph.resolveSpans = append(ph.resolveSpans, rec.add("http.resolve", root, op, t2, t3))
		}

		version++
		ingErr = orCheck(ingErr, func() error { return checkVersion(ingBuf.Bytes(), version) })
		incErr = orCheck(incErr, func() error { return checkVersion(incBuf.Bytes(), version) })
		resErr = orCheck(resErr, func() error { return checkResolve(resBuf.Bytes(), version) })
		ph.check(ingErr == nil, "cycle %d ingest: %v", op, ingErr)
		ph.check(incErr == nil, "cycle %d incremental: %v", op, incErr)
		ph.check(resErr == nil, "cycle %d resolve: %v", op, resErr)
	}
}

// orCheck returns err if the request failed, else the check of its
// response.
func orCheck(err error, check func() error) error {
	if err != nil {
		return err
	}
	return check()
}

// checkVersion checks that a JSON response reports the given version.
func checkVersion(body []byte, want int64) error {
	var doc struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if doc.Version != want {
		return fmt.Errorf("version %d, want %d", doc.Version, want)
	}
	return nil
}

// checkResolve checks that a resolve response reports the given version
// and a converged solve.
func checkResolve(body []byte, want int64) error {
	var doc resolveDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	if doc.Version != want || !doc.Converged {
		return fmt.Errorf("version %d (want %d), converged %v", doc.Version, want, doc.Converged)
	}
	return nil
}
