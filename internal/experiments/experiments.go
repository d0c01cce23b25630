// Package experiments regenerates the paper's evaluation tables on the
// synthetic suite. Each Table* function prints one deliverable; the ids
// match the experiment index in DESIGN.md and the recorded outputs live in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"turbosyn/internal/bench"
	"turbosyn/internal/core"
	"turbosyn/internal/mapper"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
)

// Config parameterizes a run.
type Config struct {
	K     int
	Quick bool // reduced workloads for smoke tests
	Out   io.Writer
}

// quickGateCap/quickFFCap bound circuit size in quick mode. They keep one
// non-trivial representative per class (bbsse and keyb for the FSMs, s420
// for the accumulators) while keeping the smoke test inside CI's plain
// `go test ./...` budget; register-heavy s838 alone costs more TurboSYN
// time than the rest of the quick suite combined.
const (
	quickGateCap = 500
	quickFFCap   = 16
)

func quickSkip(c *netlist.Circuit) bool {
	return c.NumGates() > quickGateCap || c.NumFFs() > quickFFCap
}

// caseResult bundles the three algorithms' outcomes on one circuit.
type caseResult struct {
	bench.Case
	fsns, tm, ts *core.Result
	fsnsCPU      time.Duration
	tmCPU        time.Duration
	tsCPU        time.Duration
}

var (
	suiteMu    sync.Mutex
	suiteCache = map[int][]caseResult{}
)

func turboMapOpts(k int) core.Options {
	o := core.Options{K: k, Decompose: false, PLD: true, Pipelined: true}
	return o
}

func turboSYNOpts(k int) core.Options {
	o := core.DefaultOptions()
	o.K = k
	return o
}

// runSuite maps every suite circuit with the three algorithms (cached per K).
func runSuite(cfg Config) ([]caseResult, error) {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if rs, ok := suiteCache[cfg.K]; ok {
		return rs, nil
	}
	var out []caseResult
	for _, cs := range bench.Suite() {
		if cfg.Quick && quickSkip(cs.Circuit) {
			continue
		}
		r := caseResult{Case: cs}
		var err error
		start := time.Now()
		r.fsns, err = mapper.FlowSYNS(cs.Circuit, cfg.K)
		if err != nil {
			return nil, fmt.Errorf("%s/flowsyns: %v", cs.Name, err)
		}
		r.fsnsCPU = time.Since(start)
		start = time.Now()
		r.tm, err = core.Minimize(cs.Circuit, turboMapOpts(cfg.K))
		if err != nil {
			return nil, fmt.Errorf("%s/turbomap: %v", cs.Name, err)
		}
		r.tmCPU = time.Since(start)
		start = time.Now()
		r.ts, err = core.Minimize(cs.Circuit, turboSYNOpts(cfg.K))
		if err != nil {
			return nil, fmt.Errorf("%s/turbosyn: %v", cs.Name, err)
		}
		r.tsCPU = time.Since(start)
		// Area post-pass, identical for the three flows.
		for _, res := range []*core.Result{r.fsns, r.tm, r.ts} {
			packed, _, err := mapper.Pack(res.Mapped, cfg.K, res.OrigOf)
			if err != nil {
				return nil, fmt.Errorf("%s/pack: %v", cs.Name, err)
			}
			res.LUTs = packed.NumGates()
		}
		out = append(out, r)
	}
	suiteCache[cfg.K] = out
	return out, nil
}

// Table1 reproduces the paper's Table 1: minimum clock period (MDR ratio)
// under retiming + pipelining and CPU time for FlowSYN-s, TurboMap and
// TurboSYN. The paper reports period reductions of 1.72x (vs FlowSYN-s)
// and 1.96x (vs TurboMap).
func Table1(cfg Config) error {
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Table 1: clock period (MDR ratio) under retiming+pipelining, K=%d\n", cfg.K)
	t := NewTable("circuit", "class", "gate", "ff",
		"fsns.phi", "fsns.cpu", "tm.phi", "tm.cpu", "ts.phi", "ts.cpu")
	var fsnsPhi, tmPhi, tsPhi []float64
	for _, r := range rs {
		// TurboSYN's search space contains TurboMap's (it seeds from
		// TurboMap's optimum and only adds resynthesis moves), so losing a
		// row to TurboMap is a bug, not a data point. The FlowSYN-s
		// comparison, by contrast, is empirical: the baseline maps acyclic
		// islands and can win or lose on any given circuit.
		if r.ts.Phi > r.tm.Phi {
			return fmt.Errorf("%s: TurboSYN phi %d worse than TurboMap phi %d",
				r.Name, r.ts.Phi, r.tm.Phi)
		}
		t.AddRow(r.Name, r.Class, r.Circuit.NumGates(), r.Circuit.NumFFs(),
			r.fsns.Phi, cpu(r.fsnsCPU), r.tm.Phi, cpu(r.tmCPU), r.ts.Phi, cpu(r.tsCPU))
		fsnsPhi = append(fsnsPhi, float64(r.fsns.Phi))
		tmPhi = append(tmPhi, float64(r.tm.Phi))
		tsPhi = append(tsPhi, float64(r.ts.Phi))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out,
		"geomean period ratio: FlowSYN-s/TurboSYN = %.2f, TurboMap/TurboSYN = %.2f\n",
		RatioSummary(fsnsPhi, tsPhi), RatioSummary(tmPhi, tsPhi))
	fmt.Fprintf(cfg.Out, "paper reports:        FlowSYN-s/TurboSYN = 1.72, TurboMap/TurboSYN = 1.96\n")
	return nil
}

// Table2 reproduces the paper's area comparison: LUT counts after packing.
// The paper observes that TurboSYN loses area to both baselines because of
// single-output functional decomposition.
func Table2(cfg Config) error {
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Table 2: LUT counts after packing, K=%d\n", cfg.K)
	t := NewTable("circuit", "fsns.luts", "tm.luts", "ts.luts")
	var fsns, tm, ts []float64
	for _, r := range rs {
		t.AddRow(r.Name, r.fsns.LUTs, r.tm.LUTs, r.ts.LUTs)
		fsns = append(fsns, float64(r.fsns.LUTs))
		tm = append(tm, float64(r.tm.LUTs))
		ts = append(ts, float64(r.ts.LUTs))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out,
		"geomean LUT ratio: TurboSYN/FlowSYN-s = %.2f, TurboSYN/TurboMap = %.2f (paper: TurboSYN loses area)\n",
		RatioSummary(ts, fsns), RatioSummary(ts, tm))
	return nil
}

// TablePLD reproduces the 10-50x positive-loop-detection speedup: deciding
// an infeasible target ratio with the PLD suite versus the conservative n^2
// stopping rule of SeqMapII. The n^2 runs are capped (entries marked '>').
func TablePLD(cfg Config) error {
	fmt.Fprintf(cfg.Out, "PLD ablation: infeasible-target probes, K=%d\n", cfg.K)
	t := NewTable("circuit", "target", "iters.pld", "iters.n2",
		"cpu.pld", "cpu.n2", "speedup")
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	var speedups []float64
	for _, r := range rs {
		target := r.tm.Phi - 1
		if target < 1 {
			continue
		}
		on := turboMapOpts(cfg.K)
		start := time.Now()
		okOn, statsOn, err := core.Feasible(r.Circuit, target, on)
		if err != nil {
			return err
		}
		dOn := time.Since(start)
		// The n^2 rule is given up to 100x the PLD iteration count (capped
		// rows report lower bounds '>'); anything more only burns hours to
		// prove a larger factor.
		budget := 100 * statsOn.Iterations
		budgetCap := 200000
		if cfg.Quick {
			// The smoke test only needs the ablation exercised, not a tight
			// lower bound on the speedup factor.
			budgetCap = 2000
		}
		if budget > budgetCap {
			budget = budgetCap
		}
		off := on
		off.PLD = false
		off.IterBudget = budget
		start = time.Now()
		okOff, statsOff, err := core.Feasible(r.Circuit, target, off)
		if err != nil {
			return err
		}
		dOff := time.Since(start)
		if okOn || okOff {
			return fmt.Errorf("%s: target %d unexpectedly feasible", r.Name, target)
		}
		capped := ""
		if statsOff.Iterations >= budget {
			capped = ">"
		}
		sp := float64(dOff) / float64(dOn)
		speedups = append(speedups, sp)
		t.AddRow(r.Name, target, statsOn.Iterations,
			fmt.Sprintf("%s%d", capped, statsOff.Iterations),
			cpu(dOn), capped+cpu(dOff), fmt.Sprintf("%s%.1fx", capped, sp))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out, "geomean speedup >= %.1fx (paper reports 10-50x)\n",
		GeoMean(speedups))
	return nil
}

// TableScale reproduces the scalability claim: TurboSYN handles circuits
// of over 10^4 gates and 10^3 flipflops "in reasonable time".
func TableScale(cfg Config) error {
	fmt.Fprintf(cfg.Out, "Scale: full TurboSYN minimization, K=%d\n", cfg.K)
	t := NewTable("circuit", "gates", "ffs", "phi", "luts", "cpu")
	for _, c := range scaleCases(cfg) {
		start := time.Now()
		res, err := core.Minimize(c, turboSYNOpts(cfg.K))
		if err != nil {
			return fmt.Errorf("%s: %v", c.Name, err)
		}
		t.AddRow(c.Name, c.NumGates(), c.NumFFs(), res.Phi, res.LUTs,
			cpu(time.Since(start)))
	}
	t.Render(cfg.Out)
	return nil
}

// TableK sweeps the LUT size (the paper fixes K=5; this is the extension
// ablation listed in DESIGN.md) and the LowDepth expansion knob.
func TableK(cfg Config) error {
	subset := map[string]bool{"bbara": true, "keyb": true, "s420": true, "s838": true}
	fmt.Fprintln(cfg.Out, "K sweep: TurboSYN period/LUTs for K = 3..6")
	t := NewTable("circuit", "k3.phi", "k3.luts", "k4.phi", "k4.luts",
		"k5.phi", "k5.luts", "k6.phi", "k6.luts")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		row := []interface{}{cs.Name}
		for k := 3; k <= 6; k++ {
			res, err := core.Minimize(cs.Circuit, turboSYNOpts(k))
			if err != nil {
				return fmt.Errorf("%s k=%d: %v", cs.Name, k, err)
			}
			row = append(row, res.Phi, res.LUTs)
		}
		t.AddRow(row...)
	}
	t.Render(cfg.Out)

	fmt.Fprintf(cfg.Out, "\nLowDepth ablation (expansion through cut candidates), K=%d\n", cfg.K)
	t2 := NewTable("circuit", "low0.phi", "low0.luts", "low3.phi", "low3.luts",
		"low6.phi", "low6.luts")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		row := []interface{}{cs.Name}
		for _, low := range []int{-1, 3, 6} { // -1 = strict TurboMap frontier
			o := turboSYNOpts(cfg.K)
			o.LowDepth = low
			res, err := core.Minimize(cs.Circuit, o)
			if err != nil {
				return fmt.Errorf("%s low=%d: %v", cs.Name, low, err)
			}
			row = append(row, res.Phi, res.LUTs)
		}
		t2.AddRow(row...)
	}
	t2.Render(cfg.Out)
	return nil
}

func scaleCases(cfg Config) []*netlist.Circuit {
	sizes := []struct {
		name      string
		stateBits int
		cubes     int
	}{
		{"fsm1k", 24, 8},   // ~1.3k gates
		{"fsm2k", 48, 8},   // ~2.6k gates
		{"fsm5k", 120, 8},  // ~5.5k gates
		{"fsm11k", 240, 8}, // ~11k gates
		{"fsm22k", 480, 8}, // ~22k gates, ~0.5k registers
		{"fsm44k", 960, 8}, // ~44k gates, ~1k registers: the paper's 10^4/10^3 claim
	}
	if cfg.Quick {
		// One smaller instance of the same generator; the growth curve is
		// the full run's business.
		sizes = []struct {
			name      string
			stateBits int
			cubes     int
		}{{"fsm0.8k", 10, 8}}
	}
	var out []*netlist.Circuit
	for _, sz := range sizes {
		out = append(out, bench.ScaleFSM(sz.name, sz.stateBits, sz.cubes))
	}
	return out
}

func cpu(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// TablePeriod is the clock-period-objective companion experiment (the
// TurboMap lineage): minimum period by gate-level retiming alone versus
// K-LUT mapping with retiming (no pipelining in either). Mapping compresses
// the combinational paths, so it must never lose.
func TablePeriod(cfg Config) error {
	subset := map[string]bool{
		"bbara": true, "bbsse": true, "keyb": true,
		"s420": true, "s838": true, "s1423": true,
	}
	fmt.Fprintf(cfg.Out, "Clock-period objective (no pipelining), K=%d\n", cfg.K)
	t := NewTable("circuit", "period", "retimed", "mapped+retimed", "cpu")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		p0 := retime.Period(cs.Circuit)
		pr, _ := retime.MinPeriod(cs.Circuit)
		opts := turboMapOpts(cfg.K)
		opts.Pipelined = false
		start := time.Now()
		res, err := core.Minimize(cs.Circuit, opts)
		if err != nil {
			return fmt.Errorf("%s: %v", cs.Name, err)
		}
		if res.Phi > pr {
			return fmt.Errorf("%s: mapping (%d) lost to plain retiming (%d)", cs.Name, res.Phi, pr)
		}
		t.AddRow(cs.Name, p0, pr, res.Phi, cpu(time.Since(start)))
	}
	t.Render(cfg.Out)
	return nil
}
