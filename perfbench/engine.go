package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"turbosyn"
	"turbosyn/internal/bench"
	"turbosyn/internal/core"
	"turbosyn/internal/decomp"
	"turbosyn/internal/mapper"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// lutK is the LUT size of every engine run (the paper's K).
const lutK = 5

// suiteSlice is the suite_turbosyn circuit set: three FSMs that decompose
// most of their attempts, keyb with the most decomposition work, and s420,
// whose attempts almost all miss (see README.md for the numbers).
var suiteSlice = []string{"bbara", "kirkman", "cse", "keyb", "s420"}

// A set-up figure is the median of at least setupSamples samples, taken
// between the run's operations so that they spread over the whole run and
// a slow spell of the host moves only a few of them. Each sample starts
// from a collected heap and repeats the whole set-up until it has lasted at
// least setupSampleMin, so that one sample covers hundreds of milliseconds
// of work; its value is the time of one repetition.
const (
	setupSamples   = 9
	setupSampleMin = 300 * time.Millisecond
)

// traceRingCap sizes the traced run's per-worker rings so that no span is
// dropped on the largest circuit (keyb records ~440k events across ~15
// rings). Untouched ring memory is never made resident.
const traceRingCap = 1 << 18

// input is one circuit as the program receives it: BLIF bytes.
type input struct {
	name string
	blif []byte
	vecs [][]bool // stimulus for the equivalence check
}

func runSuite(cfg config, rep *report, ctx *runContext) error {
	names := suiteSlice
	if cfg.tiny {
		names = names[:1]
	}
	byName := map[string]*netlist.Circuit{}
	for _, c := range bench.Suite() {
		byName[c.Name] = c.Circuit
	}
	var cs []*netlist.Circuit
	for _, n := range names {
		cs = append(cs, byName[n])
	}
	return runEngine(cfg, rep, ctx, turbosyn.TurboSYN, cs, 256, 17*time.Second)
}

func runFabric(cfg config, rep *report, ctx *runContext) error {
	c := bench.Scale10k()
	if cfg.tiny {
		c = bench.MultiCore("scale10k", bench.MultiCoreSpec{Cores: 4, StateBits: 4, Cubes: 4, Span: 4})
	}
	return runEngine(cfg, rep, ctx, turbosyn.TurboMap, []*netlist.Circuit{c}, 64, 3500*time.Millisecond)
}

// runEngine synthesizes a fixed set of circuits with one algorithm, a fresh
// engine per circuit, as a command-line user runs them. Each circuit gets
// nvecs seeded simulation vectors for its equivalence check. A pass over
// the circuits takes about pass on a 2-CPU machine. The number of passes
// is set from that and cfg.seconds, not from how fast the run goes, so
// that a run measures the same work on every commit.
func runEngine(cfg config, rep *report, ctx *runContext, alg turbosyn.Algorithm, cs []*netlist.Circuit, nvecs int, pass time.Duration) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	var inputs []input
	for _, c := range cs {
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, c); err != nil {
			return err
		}
		inputs = append(inputs, input{name: c.Name, blif: buf.Bytes(), vecs: sim.RandomVectors(rng, nvecs, len(c.PIs))})
	}
	ctx.Workers = runtime.NumCPU()
	opts := turbosyn.Options{K: lutK, Algorithm: alg, Workers: ctx.Workers}
	if cfg.trace {
		// A traced pass runs every circuit three times.
		return tracedEngine(rep, rng, inputs, opts, min(tracedPasses, passes(cfg.seconds, 3*pass)))
	}
	return timedEngine(rep, rng, inputs, opts, passes(cfg.seconds, pass))
}

// passes is how many passes of length pass fit in d, and at least one.
func passes(d, pass time.Duration) int {
	return max(1, int(d/pass))
}

// timedEngine is the untraced run: n whole passes over the circuits, each
// in a seeded order. Times are medians over passes. A set-up sample (the
// set-up of every circuit) precedes each circuit's operation.
func timedEngine(rep *report, rng *rand.Rand, inputs []input, opts turbosyn.Options, n int) error {
	var setups []float64
	sampleSetup := func() error {
		v, err := setupSample(func() (time.Duration, error) {
			t0 := time.Now()
			for _, in := range inputs {
				c, err := turbosyn.ReadBLIF(bytes.NewReader(in.blif))
				if err != nil {
					return 0, fmt.Errorf("%s: %w", in.name, err)
				}
				e, err := turbosyn.NewEngine(c, opts)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", in.name, err)
				}
				_ = e.Close() // no cache directory: nothing to flush
			}
			return time.Since(t0), nil
		})
		setups = append(setups, v)
		return err
	}

	var synth, alloc []float64
	lat := map[string][]float64{}
	quality := map[string][2]int{}
	for p := 0; p < n; p++ {
		var passSynth, passAlloc float64
		for _, i := range rng.Perm(len(inputs)) {
			if err := sampleSetup(); err != nil {
				return err
			}
			in := inputs[i]
			o, err := synthOnce(in, opts)
			if err == nil {
				err = checkResult(o.in, o.res, o.blif, in.vecs)
			}
			if err == nil {
				err = sameQuality(quality, in.name, o.res)
			}
			rep.op(in.name, err)
			if err != nil {
				continue
			}
			passSynth += o.synth.Seconds()
			passAlloc += float64(o.alloc) / 1e6
			lat[in.name] = append(lat[in.name], millis(o.setup+o.synth+o.write))
		}
		synth = append(synth, passSynth)
		alloc = append(alloc, passAlloc)
	}
	for len(setups) < setupSamples {
		if err := sampleSetup(); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups))
	var phi, luts int
	for _, q := range quality {
		phi += q[0]
		luts += q[1]
	}
	rep.set("synth_s", median(synth))
	rep.set("alloc_mb", median(alloc))
	rep.set("phi_sum", float64(phi))
	rep.set("luts_sum", float64(luts))
	// A circuit's latency is its median over the passes; p50 and p99 are
	// taken across circuits.
	var perCircuit []float64
	for _, l := range lat {
		perCircuit = append(perCircuit, median(l))
	}
	rep.set("p50_ms", median(perCircuit))
	rep.set("p99_ms", quantile(perCircuit, 0.99))
	return nil
}

// setupSample times one set-up repetition: it starts from a collected heap
// and repeats rep until the counted time reaches setupSampleMin. rep runs
// one repetition and returns the part of its time that counts as set-up.
func setupSample(rep func() (time.Duration, error)) (float64, error) {
	runtime.GC()
	var spent time.Duration
	reps := 0
	for reps == 0 || spent < setupSampleMin {
		d, err := rep()
		if err != nil {
			return 0, err
		}
		spent += d
		reps++
	}
	return spent.Seconds() / float64(reps), nil
}

// sameQuality records a circuit's phi and LUT count on first sight and
// fails when a later pass differs: the engine is deterministic.
func sameQuality(seen map[string][2]int, name string, res *turbosyn.Result) error {
	q := [2]int{res.Phi, res.LUTs}
	if old, ok := seen[name]; ok && old != q {
		return fmt.Errorf("phi/LUTs %v differ from the first pass's %v", q, old)
	}
	seen[name] = q
	return nil
}

// opResult is one circuit run through the public API.
type opResult struct {
	in                  *netlist.Circuit
	res                 *turbosyn.Result
	blif                []byte
	setup, synth, write time.Duration
	alloc               uint64 // bytes allocated by Synthesize
}

// synthOnce runs one circuit as the turbosyn command does: read the BLIF,
// build an engine, synthesize, write the realized netlist.
func synthOnce(in input, opts turbosyn.Options) (*opResult, error) {
	t0 := time.Now()
	c, err := turbosyn.ReadBLIF(bytes.NewReader(in.blif))
	if err != nil {
		return nil, err
	}
	e, err := turbosyn.NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	o := &opResult{in: c, setup: time.Since(t0)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	o.res, err = e.Synthesize()
	o.synth = time.Since(t1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	o.alloc = m1.TotalAlloc - m0.TotalAlloc
	t2 := time.Now()
	var buf bytes.Buffer
	if err := turbosyn.WriteBLIF(&buf, o.res.Realized); err != nil {
		return nil, err
	}
	o.write = time.Since(t2)
	o.blif = buf.Bytes()
	return o, nil
}

// tracedPasses bounds the passes of the traced run: one pass fits on the
// suite, three on the fabric, whose single circuit gives a pass only one
// sample of each timing.
const tracedPasses = 3

// layerMetrics are the per-layer times layeredOnce adds up; the traced run
// reports their means over its passes.
var layerMetrics = []string{
	"netlist.read_s", "core.analyze_s", "core.search_s", "mapper.pack_s", "retime.realize_s",
	"netlist.write_s", "sim.verify_s", "expand.self_s", "flow.self_s", "decomp.self_s", "pld.self_s",
}

// tracedEngine is the per-layer run. In each pass, each circuit runs once
// through the public API (untraced: exact counters, per-circuit rows,
// reference bytes), once layer by layer with the trace recorder on, timing
// each public call of the layer packages in the order Engine.Synthesize
// makes them, and once more through the public API with the trace recorder
// on. Both traced runs must emit the same bytes as the untraced one. Per
// pass, the layer times are compared with the traced public run's
// synthesis time (bench.layer_coverage) and the traced layered run with
// the untraced one (bench.trace_overhead); each is the median over passes.
func tracedEngine(rep *report, rng *rand.Rand, inputs []input, opts turbosyn.Options, n int) error {
	var st core.Stats
	var occupancy, arenaPeak, events, dropped int
	var overhead, coverage []float64
	for p := 0; p < n; p++ {
		var pubSynth, tracedSynth, laySynth, layers float64
		for _, i := range rng.Perm(len(inputs)) {
			in := inputs[i]
			pub, err := synthOnce(in, opts)
			if err == nil {
				err = checkResult(pub.in, pub.res, pub.blif, in.vecs)
			}
			rep.op("public "+in.name, err)
			if err != nil {
				continue
			}
			if p == 0 {
				rep.set("phi."+in.name, float64(pub.res.Phi))
				rep.set("luts."+in.name, float64(pub.res.LUTs))
				rep.set("synth_s."+in.name, pub.synth.Seconds())
				st.Add(pub.res.Stats)
				occupancy = max(occupancy, pub.res.Stats.WorkerOccupancy)
				arenaPeak = max(arenaPeak, pub.res.Stats.ArenaPeakBytes)
			}

			lay, err := layeredOnce(rep, in, opts)
			if err == nil && !bytes.Equal(lay.blif, pub.blif) {
				err = fmt.Errorf("layered path emitted different BLIF than Engine.Synthesize")
			}
			rep.op("layered "+in.name, err)
			if err != nil {
				continue
			}
			if p == 0 {
				events += lay.events
			}
			dropped += lay.dropped

			// The public path with the same trace recorder on: the synthesis
			// time the layer times must account for.
			topts := opts
			topts.Trace = turbosyn.NewTraceRecorder(traceRingCap)
			traced, err := synthOnce(in, topts)
			if err == nil && !bytes.Equal(traced.blif, pub.blif) {
				err = fmt.Errorf("traced Engine.Synthesize emitted different BLIF than the untraced one")
			}
			rep.op("traced "+in.name, err)
			if err != nil {
				continue
			}
			pubSynth += pub.synth.Seconds()
			laySynth += lay.synth.Seconds()
			layers += (lay.search + lay.pack + lay.realize).Seconds()
			tracedSynth += traced.synth.Seconds()
		}
		if pubSynth > 0 {
			overhead = append(overhead, laySynth/pubSynth)
			coverage = append(coverage, layers/tracedSynth)
		}
	}
	for _, m := range layerMetrics {
		rep.values[m] /= float64(n)
	}
	rep.set("flow.cut_checks", float64(st.CutChecks))
	rep.set("expand.builds", float64(st.ExpandBuilds))
	rep.set("expand.reuse_ratio", ratio(st.ExpandReuses, st.ExpandBuilds+st.ExpandReuses))
	rep.set("decomp.attempts", float64(st.DecompAttempts))
	rep.set("decomp.success_ratio", ratio(st.Decompositions, st.DecompAttempts))
	rep.set("decomp.rothkarp_calls", float64(st.RothKarpCalls))
	rep.set("decomp.bound_sets", float64(st.BoundSetsExamined))
	rep.set("decomp.cache_hit_ratio", ratio(st.CacheShardHits, st.CacheShardHits+st.CacheShardMisses))
	rep.set("pld.checks", float64(st.PLDChecks))
	rep.set("pld.hits", float64(st.PLDHits))
	rep.set("core.iterations", float64(st.Iterations))
	rep.set("core.sweep_visits", float64(st.SweepNodeVisits))
	rep.set("core.dirty_skip_ratio", ratio(st.DirtySkips, st.SweepNodeVisits+st.DirtySkips))
	rep.set("core.probes", float64(st.ProbesLaunched))
	rep.set("core.probes_cancelled", float64(st.ProbesCancelled))
	rep.set("core.parallel_tasks", float64(st.ParallelTasks))
	rep.set("core.inline_tasks", float64(st.InlineTasks))
	rep.set("core.worker_occupancy", float64(occupancy))
	rep.set("core.arena_peak_mb", float64(arenaPeak)/1e6)
	rep.set("trace.events", float64(events))
	rep.set("trace.dropped", float64(dropped))
	if dropped > 0 {
		// Partial spans would understate the stages; report none.
		for _, n := range []string{"expand.self_s", "flow.self_s", "decomp.self_s", "pld.self_s"} {
			delete(rep.values, n)
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace dropped %d events; expand/flow/decomp/pld self times omitted\n", dropped)
	}
	if len(overhead) > 0 {
		rep.set("bench.trace_overhead", median(overhead))
		rep.set("bench.layer_coverage", median(coverage))
	}
	return nil
}

// layerTimes is one layered, traced run of a circuit.
type layerTimes struct {
	blif                         []byte
	search, pack, realize, synth time.Duration
	events, dropped              int
}

// layeredOnce runs the synthesis pipeline one layer package at a time:
// netlist read, core analysis, core search, mapper pack, retime realize,
// netlist write, then the simulation oracle. Layer times and the stage
// self times of the search's trace are added to rep.
func layeredOnce(rep *report, in input, opts turbosyn.Options) (*layerTimes, error) {
	rec := obs.NewRecorder(traceRingCap)
	copts := core.Options{
		K:         opts.K,
		Decompose: opts.Algorithm == turbosyn.TurboSYN,
		PLD:       !opts.NoPLD,
		Pipelined: opts.Objective == turbosyn.MinRatio,
		Relax:     !opts.NoRelax,
		Workers:   opts.Workers,
		Trace:     rec,
	}
	lt := &layerTimes{}

	t := time.Now()
	c, err := netlist.ReadBLIF(bytes.NewReader(in.blif))
	if err != nil {
		return nil, err
	}
	rep.add("netlist.read_s", time.Since(t).Seconds())

	t = time.Now()
	if err := c.Check(); err != nil {
		return nil, err
	}
	work := c
	if !c.IsKBounded(copts.K) {
		if work, err = decomp.KBound(c, copts.K); err != nil {
			return nil, err
		}
	}
	eng, err := core.NewEngine(work, copts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rep.add("core.analyze_s", time.Since(t).Seconds())

	tSynth := time.Now()
	res, err := eng.MinimizeContext(context.Background(), copts)
	lt.search = time.Since(tSynth)
	if err != nil {
		return nil, err
	}
	origOf := res.OrigOf
	if work != c {
		origOf = remapOrigins(res.OrigOf, work, c)
	}

	t = time.Now()
	mapped, origOf, err := mapper.Pack(res.Mapped, copts.K, origOf)
	lt.pack = time.Since(t)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	r, ok := retime.RetimeForPeriod(mapped, res.Phi, copts.Pipelined)
	if !ok {
		return nil, fmt.Errorf("phi=%d not realizable", res.Phi)
	}
	realized, err := retime.Apply(mapped, r)
	if err != nil {
		return nil, err
	}
	_ = retime.Latency(mapped, r)
	lt.realize = time.Since(t)
	lt.synth = time.Since(tSynth)

	t = time.Now()
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, realized); err != nil {
		return nil, err
	}
	rep.add("netlist.write_s", time.Since(t).Seconds())
	lt.blif = buf.Bytes()

	t = time.Now()
	out := &turbosyn.Result{Phi: res.Phi, LUTs: mapped.NumGates(), Mapped: mapped, OrigOf: origOf, Realized: realized}
	if err := checkResult(c, out, lt.blif, in.vecs); err != nil {
		return nil, err
	}
	rep.add("sim.verify_s", time.Since(t).Seconds())

	rep.add("core.search_s", lt.search.Seconds())
	rep.add("mapper.pack_s", lt.pack.Seconds())
	rep.add("retime.realize_s", lt.realize.Seconds())
	lt.events, lt.dropped = rec.Totals()
	self, err := stageSeconds(rec)
	if err != nil {
		return nil, err
	}
	rep.add("expand.self_s", self["expand"])
	rep.add("flow.self_s", self["flow"])
	rep.add("decomp.self_s", self["decompose"])
	rep.add("pld.self_s", self["pld"])
	return lt, nil
}

// remapOrigins maps stream origins in the K-bounded circuit back to the
// read circuit by node name, as Engine.Synthesize does.
func remapOrigins(origOf []int, bounded, orig *netlist.Circuit) []int {
	out := make([]int, len(origOf))
	for i, b := range origOf {
		out[i] = -1
		if b >= 0 && bounded.Nodes[b].Name != "" {
			out[i] = orig.IDByName(bounded.Nodes[b].Name)
		}
	}
	return out
}

// stageSeconds sums the durations of the recorder's spans by name. Engine
// stage spans (expand, flow, decompose, pld) never nest within a ring, so
// each sum is that stage's self time, added over all workers. The recorder
// exports only Chrome trace JSON, which is decoded as a stream here.
func stageSeconds(rec *obs.Recorder) (map[string]float64, error) {
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pw.CloseWithError(rec.WriteTrace(pw, ""))
	}()
	defer func() {
		pr.Close() // unblocks the writer if decoding stopped early
		<-done
	}()
	sums := map[string]float64{}
	dec := json.NewDecoder(pr)
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if key != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		for dec.More() {
			var ev struct {
				Name string   `json:"name"`
				Dur  *float64 `json:"dur"` // µs
			}
			if err := dec.Decode(&ev); err != nil {
				return nil, err
			}
			if ev.Dur != nil {
				sums[ev.Name] += *ev.Dur / 1e6
			}
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
	}
	return sums, nil
}
