package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// tally counts attempted and failed operations and checks. The first few
// failures keep a note for the log. The solver child sends its tally to
// the parent as JSON.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
}

const maxNotes = 10

// check records one attempted operation or check, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.Attempted++
	if !ok {
		t.Failed++
		if len(t.Notes) < maxNotes {
			t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, n := range o.Notes {
		if len(t.Notes) < maxNotes {
			t.Notes = append(t.Notes, n)
		}
	}
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile; with it a run needs at least 100 operations for a p90.
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples strictly beyond it. xs is not modified.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s) - 1 - idx
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// tail90 returns the p90 of xs and checks that it has at least
// minTailSamples samples beyond it.
func tail90(t *tally, what string, xs []float64) float64 {
	v, beyond := quantile(xs, 0.9)
	t.check(beyond >= minTailSamples, "%s p90 has %d samples beyond it, want %d", what, beyond, minTailSamples)
	return v
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sum adds up xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// spinIters sizes the calibration loop at a few tens of milliseconds on
// a current x86 core.
const spinIters = 30_000_000

// spinSink keeps the calibration loop's result live.
var spinSink uint64

// spinOnce times a fixed xorshift loop: pure CPU work whose cost does
// not depend on the program under test, so a slower reading means a
// slower or busier host.
func spinOnce() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(t0)
}

// spinSamples runs the calibration loop n times.
func spinSamples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(spinOnce())
	}
	return out
}

// span is one timed interval of a traced run. Spans of one operation
// share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory. Times are nanoseconds
// since the recorder's creation. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its ID.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
	return id
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			//lint:ignore errflow already failing; the encode error is the one to report
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errflow already failing; the flush error is the one to report
		_ = f.Close()
		return err
	}
	return f.Close()
}

// processCPU is the CPU time (user plus system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rusageCPU(&ru)
}

// rusageCPU is the user plus system CPU time in ru. The kernel leaves
// out time the hypervisor stole from the virtual CPU.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// overheadPct is the traced-minus-untraced difference of two per-op
// costs as a percentage of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	return (traced - untraced) / untraced * 100
}
