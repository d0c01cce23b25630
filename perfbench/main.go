// Command perfbench is the repository benchmark. It runs one named workload
// with a seed, checks every output it produces, and prints its metrics: with
// --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
// per-layer metrics. Each metric is printed as a "name value unit better"
// line, and the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"synth_s": {"value": 15.2, "unit": "s"}, ...}}
//
// Run it through perfbench/run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload suite_turbosyn --seed 1 --seconds 35 --trace 0
//
// The workloads, the metric-to-layer map and the hold-out seed are described
// in perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric with its unit and better-direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a --trace 0 run prints on every workload, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"synth_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"phi_sum", "count", "lower"},
	{"luts_sum", "count", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// Circuits whose per-circuit rows (phi.<c>, luts.<c>, synth_s.<c>) appear in
// the per-layer metrics: the suite slice, the fabric, and the circuits of
// the daemon mix.
var rowCircuits = []string{"bbara", "kirkman", "cse", "keyb", "s420", "scale10k", "quick"}

// perLayer lists the metrics a --trace 1 run prints on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"netlist.read_s", "s", "lower"},
		{"core.analyze_s", "s", "lower"},
		{"core.search_s", "s", "lower"},
		{"mapper.pack_s", "s", "lower"},
		{"retime.realize_s", "s", "lower"},
		{"netlist.write_s", "s", "lower"},
		{"sim.verify_s", "s", "lower"},
		{"expand.self_s", "s", "lower"},
		{"flow.self_s", "s", "lower"},
		{"decomp.self_s", "s", "lower"},
		{"pld.self_s", "s", "lower"},
		{"trace.events", "count", "lower"},
		{"trace.dropped", "count", "lower"},
		{"flow.cut_checks", "count", "lower"},
		{"expand.builds", "count", "lower"},
		{"expand.reuse_ratio", "ratio", "higher"},
		{"decomp.attempts", "count", "lower"},
		{"decomp.success_ratio", "ratio", "higher"},
		{"decomp.rothkarp_calls", "count", "lower"},
		{"decomp.bound_sets", "count", "lower"},
		{"decomp.cache_hit_ratio", "ratio", "higher"},
		{"pld.checks", "count", "lower"},
		{"pld.hits", "count", "higher"},
		{"core.iterations", "count", "lower"},
		{"core.sweep_visits", "count", "lower"},
		{"core.dirty_skip_ratio", "ratio", "higher"},
		{"core.probes", "count", "lower"},
		{"core.probes_cancelled", "count", "lower"},
		{"core.parallel_tasks", "count", "lower"},
		{"core.inline_tasks", "count", "lower"},
		{"core.worker_occupancy", "count", "higher"},
		{"core.arena_peak_mb", "MB", "lower"},
		{"server.start_s", "s", "lower"},
		{"server.journal_load_s", "s", "lower"},
		{"server.journal_compact_s", "s", "lower"},
		{"server.admission_ms", "ms", "lower"},
		{"server.journal_append_ms", "ms", "lower"},
		{"server.queue_wait_ms", "ms", "lower"},
		{"server.run_ms.quick", "ms", "lower"},
		{"server.run_ms.bbara", "ms", "lower"},
		{"server.run_ms.s420", "ms", "lower"},
		{"daemon.p50_ms_low", "ms", "lower"},
		{"daemon.p99_ms_low", "ms", "lower"},
		{"daemon.p50_ms_high", "ms", "lower"},
		{"daemon.p99_ms_high", "ms", "lower"},
		{"daemon.jobs_low", "count", "higher"},
		{"daemon.jobs_high", "count", "higher"},
		{"daemon.max_rate_jps", "1/s", "higher"},
		{"daemon.shed_ratio", "ratio", "lower"},
		{"bench.fail_ratio", "ratio", "lower"},
		{"bench.ops", "count", "higher"},
		{"bench.gen_lag_p99_ms.low", "ms", "lower"},
		{"bench.gen_lag_p99_ms.high", "ms", "lower"},
		{"bench.backlog_slope.low", "1/s", "lower"},
		{"bench.backlog_slope.high", "1/s", "lower"},
		{"bench.trace_overhead", "ratio", "lower"},
		{"bench.layer_coverage", "ratio", "higher"},
	}
	for _, r := range ladderRates {
		defs = append(defs,
			metricDef{fmt.Sprintf("bench.ladder_p99_ms.r%d", r), "ms", "lower"},
			metricDef{fmt.Sprintf("bench.ladder_shed_ratio.r%d", r), "ratio", "lower"},
			metricDef{fmt.Sprintf("bench.gen_lag_p99_ms.r%d", r), "ms", "lower"},
			metricDef{fmt.Sprintf("bench.backlog_slope.r%d", r), "1/s", "lower"})
	}
	for _, c := range rowCircuits {
		defs = append(defs,
			metricDef{"phi." + c, "count", "lower"},
			metricDef{"luts." + c, "count", "lower"},
			metricDef{"synth_s." + c, "s", "lower"})
	}
	return defs
}()

// report accumulates one run's operation outcomes and metrics.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op counts one checked operation; a non-nil err marks it failed and is
// logged to standard error. The run goes on either way.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) add(name string, v float64) { r.values[name] += v }

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish renders the report for defs: one human-readable line per metric
// and the JSON result line. A per-layer metric the workload did not set
// reads 0; an end-to-end metric it did not set is an error.
func (r *report) finish(w io.Writer, defs []metricDef, requireAll bool) error {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && requireAll {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// e.g. a p99 latency over a step that refused more than 1% of
			// its jobs
			return fmt.Errorf("metric %s = %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s\n", d.name, v, d.unit, d.better)
	}
	res.Correct = r.attempted > 0 && r.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runContext is printed with every result so that runs on different
// machines or CPU counts are never compared unknowingly.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Fleet      int    `json:"fleet,omitempty"`
	RatesJPS   []int  `json:"rates_jps,omitempty"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// commitID names the code under test: the VCS revision stamped into the
// binary when built inside a git checkout (marked when the tree had local
// changes), otherwise a hash of the repository's Go sources and go.mod
// under root.
func commitID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" && modified {
			return rev + "+modified"
		}
		if rev != "" {
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // scratch space for the daemon journal
	tiny     bool   // test size: smallest inputs, no minimum step lengths
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, rep *report, ctx *runContext) error{
	"suite_turbosyn":     runSuite,
	"fabric10k_turbomap": runFabric,
	"daemon_mix":         runDaemon,
}

func main() {
	workload := flag.String("workload", "", "workload name: suite_turbosyn, fabric10k_turbomap or daemon_mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp(".", ".perfbench-run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	}
	ctx := &runContext{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID("."),
	}
	if cfg.trace {
		ctx.Trace = 1
	}
	rep := newReport()
	if err := runner(cfg, rep, ctx); err != nil {
		return err
	}
	if cfg.trace {
		rep.set("bench.fail_ratio", ratio(rep.failed, rep.attempted))
		rep.set("bench.ops", float64(rep.attempted))
	} else {
		rep.set("max_rss_mb", maxRSSMB())
	}
	line, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "context %s\n", line)
	if cfg.trace {
		return rep.finish(w, perLayer, false)
	}
	return rep.finish(w, endToEnd, true)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy: the smallest value with at least q of the samples at or
// below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
