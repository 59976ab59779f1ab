// Command perfbench is the repository benchmark. It runs one seeded
// workload against the CRH solver (crh.Run on Stock or Bank data, in a
// child process that reads only a TSV file) or against a crhd
// subprocess over HTTP (live ingest cycles, cached resolve reads),
// checks the outputs, and prints the end-to-end metrics; with --trace 1
// it instead prints the per-layer metrics of a traced run and writes the
// run's spans as JSON Lines.
//
// Run it from the repository root through run.sh, which builds crhd and
// this program first:
//
//	bash perfbench/run.sh --workload solve-stock --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every untraced run reports, on
// every workload. They count CPU time of the program under test — the
// solver process or crhd — not wall time, which on a shared host with
// CPU steal moves with the neighbours (README.md). "op" is the
// workload's unit of work: one crh.Run on solve-*, one
// ingest+incremental+resolve cycle on serve-ingest, one resolve on
// serve-read.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0 (README.md lists which
// workload drives which layer).
var layerMetrics = []metricDef{
	{"wall.setup_s", "s"},
	{"wall.ops_per_s", "1/s"},
	{"wall.op_ms_p50", "ms"},
	{"wall.op_ms_p90", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.weight_ms", "ms"},
	{"core.truth_ms", "ms"},
	{"core.objective_ms", "ms"},
	{"core.iterations", "count"},
	{"core.alloc_mb", "MB"},
	{"data.build_ms", "ms"},
	{"data.rebuild_ms", "ms"},
	{"stream.process_ms", "ms"},
	{"stream.chunks", "count"},
	{"wal.append_kb", "KB"},
	{"wal.snapshots", "count"},
	{"server.decode_ms", "ms"},
	{"server.cache_ms", "ms"},
	{"server.coalesce_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"http.ingest_ms", "ms"},
	{"http.incremental_ms", "ms"},
	{"http.resolve_ms", "ms"},
	{"http.resolve_kb", "KB"},
	{"loadgen.late_ms_p90", "ms"},
	{"host.spin_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"check.weights_max_rel_diff", "ratio"},
	{"check.truths_differ", "count"},
}

// env is one invocation's settings.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	crhd    string // crhd binary
	work    string // this run's scratch directory, removed at exit
	spans   string // JSON Lines file a traced run writes its spans to
}

// report is what a workload hands back: its checks, its metrics, and
// human-readable lines printed ahead of the JSON result.
type report struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
	info   []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(env) (*report, error){
	"solve-stock":  func(e env) (*report, error) { return runSolve(e, stockInput) },
	"solve-bank":   func(e env) (*report, error) { return runSolve(e, bankInput) },
	"serve-ingest": runServeIngest,
	"serve-read":   runServeRead,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == solveChildCmd {
		os.Exit(solveChild(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: solve-stock, solve-bank, serve-ingest or serve-read")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 20, "measurement length in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		crhdBin  = fs.String("crhd", "", "crhd binary (required by the serve-* workloads)")
		work     = fs.String("work", ".bench_build/runs", "directory for per-run scratch files and trace output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	crhdPath := *crhdBin
	if crhdPath != "" {
		if crhdPath, err = filepath.Abs(crhdPath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	e := env{
		seed: *seed, seconds: *seconds, trace: *trace == 1, crhd: crhdPath, work: dir,
		spans: filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)),
	}

	rep, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := resultLine(rep, e.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", n)
	}
	for _, l := range rep.info {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine encodes the result with exactly the declared metrics of
// the run's kind. An end-to-end metric the workload did not fill is a
// benchmark bug, reported as an error; a per-layer metric it did not
// fill is a layer the workload does not drive, and reads 0.
func resultLine(rep *report, traced bool) ([]byte, error) {
	defs, vals := e2eMetrics, rep.e2e
	if traced {
		defs, vals = layerMetrics, rep.layers
	}
	out := result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(out)
}

// formatMs renders a duration in milliseconds for info lines.
func formatMs(ms float64) string { return strconv.FormatFloat(ms, 'f', 3, 64) + "ms" }
