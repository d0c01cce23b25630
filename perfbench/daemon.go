package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/server"
)

// The daemon_mix traffic. Rates are fixed, so that every commit is measured
// under the same offered load: lowRate and highRate sit at about 1/3 and 3/4
// of the saturation rate measured when the benchmark was written (2-CPU
// container, default fleet), and ladderRates brackets it.
const (
	lowRate  = 160 // jobs/s
	highRate = 360 // jobs/s
	// minStepJobs is the fewest jobs a step offers, so that its p99 has at
	// least ten samples beyond it.
	minStepJobs = 1000
	// lowWindows is the number of windows the low rate is offered in; each
	// offers at least minStepJobs jobs. The end-to-end latency figures are
	// medians over the windows.
	lowWindows = 4
	// Before, between and after the low-rate windows, isolatedJobs jobs of
	// each TurboMap circuit, and four times as many quick jobs, run one at
	// a time to measure synthesis time through the daemon; after each
	// window, replaySamples set-up samples.
	isolatedJobs  = 3
	replaySamples = 3
	tenants       = 4
	// turbomapShare of the jobs are TurboMap runs of a small suite
	// circuit; the rest are the quick 2-LUT job, where admission, journal
	// and queue dominate. The share is assumed, not measured: the
	// repository records no mixed traffic (cmd/loadgen sends quick jobs
	// only).
	turbomapShare = 0.02
	// ladderP99 is the latency limit a ladder step must meet.
	ladderP99 = 250 * time.Millisecond
	// clients bounds the load generator's in-flight jobs. It is twice the
	// daemon's default queue capacity (256), so that past saturation the
	// daemon's queue fills and refuses submissions before the generator
	// runs out of clients. Each blocked client goroutine holds one HTTP
	// connection and costs no CPU.
	clients = 512
)

var ladderRates = []int{200, 300, 400, 500, 600}

// quickBLIF is the quick job of cmd/loadgen: two LUTs and one latch.
const quickBLIF = ".model quick\n.inputs a\n.outputs z\n.latch n q 0\n.names a q n\n11 1\n.names q z\n1 1\n.end\n"

// turbomapCircuits are the suite circuits of the TurboMap jobs, and
// turbomapMix the order in which TurboMap jobs cycle through them: bbara
// (~65 ms) seven times as often as s420 (~180 ms). This ratio is assumed,
// not measured. It was chosen so that, with 2% TurboMap jobs, the p99 of a
// window falls on bbara jobs rather than on the edge between two kinds,
// where it would jump from run to run. The slower tail above it (s420 jobs
// and the jobs queued behind them) is therefore not in p99_ms.
var (
	turbomapCircuits = []string{"bbara", "s420"}
	turbomapMix      = []int{0, 0, 0, 0, 0, 0, 0, 1}
)

// jobKind is one kind of job in the mix, with the result every job of the
// kind must reproduce.
type jobKind struct {
	name      string
	spec      server.JobSpec
	phi, luts int
}

// daemonRun is the state of one daemon_mix run.
type daemonRun struct {
	cfg     config
	rep     *report
	rng     *rand.Rand
	cl      *server.Client
	clients int
	kinds   []*jobKind
}

func runDaemon(cfg config, rep *report, ctx *runContext) error {
	ctx.Workers = 1
	ctx.Fleet = runtime.NumCPU()
	ctx.RatesJPS = []int{lowRate, highRate}
	if cfg.trace {
		ctx.RatesJPS = append(ctx.RatesJPS, ladderRates...)
	}
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = clients

	dir := filepath.Join(cfg.workdir, "journal")
	// Per-job trace rings stay off, as in cmd/loadgen: the registry keeps
	// every finished job, and with rings each one retains ~0.5 MB.
	scfg := server.Config{WorkersPerJob: 1, JournalDir: dir, TraceRingCap: -1}
	t0 := time.Now()
	s, err := server.New(scfg)
	if err != nil {
		return err
	}
	s.Start()
	addr, shutdown, err := server.ListenAndServeBackground(server.NewHTTPServer("127.0.0.1:0", s.Handler()), nil)
	if err != nil {
		s.Close()
		return err
	}
	startS := time.Since(t0).Seconds()
	d := newDaemonRun(cfg, rep, "http://"+addr.String())

	err = d.traffic(s, dir)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = shutdown(sctx) // the measurements are taken; a slow close changes none
	cancel()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	rep.set("server.start_s", startS)
	return d.replayLayers(dir)
}

func newDaemonRun(cfg config, rep *report, base string) *daemonRun {
	d := &daemonRun{cfg: cfg, rep: rep, rng: rand.New(rand.NewSource(cfg.seed)), clients: clients}
	d.cl = server.NewClient(base, "")
	d.cl.MaxAttempts = 1 // open loop: a refusal is a shed, never retried
	return d
}

// traffic runs the measured steps against the started daemon s, whose
// journal is in the directory journal.
//
// The low rate is offered in lowWindows windows. Before, between and after
// them, the daemon is idle except for isolated jobs: every kind alone, one
// job at a time, so that no job shares the CPUs with another. Each
// isolated job's run time is its /statz delta, and synth_s adds up the
// median of each kind times its job count. Between the windows of an
// untraced run, set-up samples replay the journal the first window left
// behind. Spreading these samples over the run keeps a slow spell of the
// host from moving more than a few of them.
func (d *daemonRun) traffic(s *server.Server, journal string) error {
	if err := d.calibrate(); err != nil {
		return err
	}
	var phi, luts int
	for _, k := range d.kinds {
		phi += k.phi
		luts += k.luts
		d.rep.set("phi."+k.name, float64(k.phi))
		d.rep.set("luts."+k.name, float64(k.luts))
	}
	d.rep.set("phi_sum", float64(phi))
	d.rep.set("luts_sum", float64(luts))

	runs := map[*jobKind][]float64{}
	var setups []float64
	var files map[string][]byte // the journal set-up replays
	idle := func() error {
		for _, k := range d.kinds {
			n := isolatedJobs
			if k.name == "quick" {
				n *= 4
			}
			if d.cfg.tiny {
				n = 1
			}
			for i := 0; i < n; i++ {
				b := s.Stats().Latency["run"].SumSeconds
				d.rep.op("isolated "+k.name, d.runJob(k))
				runs[k] = append(runs[k], s.Stats().Latency["run"].SumSeconds-b)
			}
		}
		for i := 0; files != nil && i < replaySamples; i++ {
			v, err := setupSample(d.replay(files))
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		return nil
	}

	// The end-to-end latency and allocation figures come from the low
	// rate; the traced run adds the high rate and the ladder. alloc_mb is
	// read before the windows' results are fetched and checked.
	before := s.Stats().Latency
	var lows []*stepResult
	var p50s, p99s []float64
	var alloc uint64
	for w := 0; w < lowWindows; w++ {
		if err := idle(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st := d.step(lowRate, d.stepLength(0.8/lowWindows, lowRate, minStepJobs))
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		d.check(st)
		lows = append(lows, st)
		p50s = append(p50s, median(st.lat))
		p99s = append(p99s, quantile(st.lat, 0.99))
		if files == nil && !d.cfg.trace {
			var err error
			if files, err = readJournal(journal); err != nil {
				return err
			}
		}
	}
	if err := idle(); err != nil {
		return err
	}
	d.rep.set("alloc_mb", float64(alloc)/1e6)
	d.rep.set("p50_ms", median(p50s))
	d.rep.set("p99_ms", median(p99s))
	var synth float64
	for _, k := range d.kinds {
		synth += float64(len(runs[k])) * median(runs[k])
		d.rep.set("server.run_ms."+k.name, median(runs[k])*1e3)
		d.rep.set("synth_s."+k.name, median(runs[k]))
	}
	d.rep.set("synth_s", synth)
	if !d.cfg.trace {
		d.rep.set("setup_s", median(setups))
		return nil
	}
	low := mergeSteps(lows)
	mid := s.Stats().Latency
	high := d.step(highRate, d.stepLength(0.3, highRate, minStepJobs))
	after := s.Stats().Latency
	d.check(high)

	d.rep.set("daemon.p50_ms_low", median(low.lat))
	d.rep.set("daemon.p99_ms_low", low.admittedP99())
	d.rep.set("daemon.p50_ms_high", median(high.lat))
	d.rep.set("daemon.p99_ms_high", high.admittedP99())
	d.rep.set("daemon.jobs_low", float64(low.jobs))
	d.rep.set("daemon.jobs_high", float64(high.jobs))
	d.rep.set("daemon.shed_ratio", ratio(low.shed+high.shed, low.jobs+high.jobs))
	d.rep.set("bench.gen_lag_p99_ms.low", quantile(low.lag, 0.99))
	d.rep.set("bench.gen_lag_p99_ms.high", quantile(high.lag, 0.99))
	d.rep.set("bench.backlog_slope.low", low.slope)
	d.rep.set("bench.backlog_slope.high", high.slope)
	d.rep.set("server.admission_ms", median(append(low.admission, high.admission...)))
	d.rep.set("server.journal_append_ms", meanDelta(before["journal_append"], after["journal_append"]))
	d.rep.set("server.queue_wait_ms", meanDelta(mid["queue_wait"], after["queue_wait"]))

	maxRate := 0
	for _, r := range ladderRates {
		st := d.step(r, d.stepLength(0.1, r, minStepJobs))
		d.check(st)
		d.rep.set(fmt.Sprintf("bench.ladder_p99_ms.r%d", r), st.admittedP99())
		d.rep.set(fmt.Sprintf("bench.ladder_shed_ratio.r%d", r), ratio(st.shed, st.jobs))
		d.rep.set(fmt.Sprintf("bench.gen_lag_p99_ms.r%d", r), quantile(st.lag, 0.99))
		d.rep.set(fmt.Sprintf("bench.backlog_slope.r%d", r), st.slope)
		// A refused job has infinite latency, so it misses the limit.
		if quantile(st.lat, 0.99) <= millis(ladderP99) && st.slope <= 0.05*float64(r) {
			maxRate = r
		}
	}
	d.rep.set("daemon.max_rate_jps", float64(maxRate))

	return nil
}

// mergeSteps joins the windows of one rate into one step result; its
// backlog slope is the steepest window's.
func mergeSteps(sts []*stepResult) *stepResult {
	m := &stepResult{rate: sts[0].rate, slope: math.Inf(-1)}
	for _, st := range sts {
		m.jobs += st.jobs
		m.shed += st.shed
		m.lat = append(m.lat, st.lat...)
		m.lag = append(m.lag, st.lag...)
		m.admission = append(m.admission, st.admission...)
		m.slope = math.Max(m.slope, st.slope)
	}
	return m
}

// stepLength is a step's share of the run's measurement time, and at
// least long enough to offer jobs jobs at rate (test-size runs excepted).
func (d *daemonRun) stepLength(share float64, rate, jobs int) time.Duration {
	dur := time.Duration(share * float64(d.cfg.seconds))
	if min := time.Duration(float64(jobs) / float64(rate) * float64(time.Second)); !d.cfg.tiny && dur < min {
		dur = min
	}
	return dur
}

// calibrate builds the job kinds and runs each once, recording the phi and
// LUT count every later job of the kind must reproduce.
func (d *daemonRun) calibrate() error {
	d.kinds = []*jobKind{{name: "quick", spec: server.JobSpec{BLIF: quickBLIF}}}
	byName := map[string]*netlist.Circuit{}
	for _, c := range bench.Suite() {
		byName[c.Name] = c.Circuit
	}
	for _, name := range turbomapCircuits {
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, byName[name]); err != nil {
			return err
		}
		d.kinds = append(d.kinds, &jobKind{name: name, spec: server.JobSpec{
			Options: server.JobOptions{Algorithm: "turbomap"}, BLIF: buf.String(),
		}})
	}
	for _, k := range d.kinds {
		st, blif, err := d.cl.Run(context.Background(), k.spec)
		if err == nil {
			err = checkJob(st, blif, nil)
		}
		if err != nil {
			return fmt.Errorf("calibration job %s: %w", k.name, err)
		}
		k.phi, k.luts = st.Result.Phi, st.Result.LUTs
	}
	return nil
}

// runJob runs one job of kind k to completion and checks it.
func (d *daemonRun) runJob(k *jobKind) error {
	st, blif, err := d.cl.Run(context.Background(), k.spec)
	if err != nil {
		return err
	}
	return checkJob(st, blif, k)
}

// checkJob is the daemon's output check: the job is done, its result BLIF
// parses, the netlist's clock period is the reported phi, and, when k is
// given, phi and LUT count are those of the kind.
func checkJob(st *server.JobStatus, blif []byte, k *jobKind) error {
	if st.State != server.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	c, err := netlist.ReadBLIF(bytes.NewReader(blif))
	if err != nil {
		return fmt.Errorf("job %s: result does not parse: %w", st.ID, err)
	}
	if p := retime.Period(c); p != st.Result.Phi {
		return fmt.Errorf("job %s: result period %d, reported phi %d", st.ID, p, st.Result.Phi)
	}
	if k != nil && (st.Result.Phi != k.phi || st.Result.LUTs != k.luts) {
		return fmt.Errorf("job %s: phi/LUTs %d/%d, %s gives %d/%d", st.ID, st.Result.Phi, st.Result.LUTs, k.name, k.phi, k.luts)
	}
	return nil
}

// stepResult is one fixed-rate step of open-loop traffic.
type stepResult struct {
	rate, jobs, shed int
	lat              []float64 // ms from scheduled send to observed terminal state; +Inf when shed
	lag              []float64 // ms the generator sent late
	admission        []float64 // ms, client-timed POST of admitted jobs
	slope            float64   // backlog growth, jobs/s, over the arrival window
	outcomes         []outcome
}

// outcome is what a step keeps of one job for its check after the step.
type outcome struct {
	kind *jobKind
	id   string
	st   *server.JobStatus
	err  error
	shed bool
}

// step offers rate jobs/s for dur as an open loop: Poisson arrivals from
// the seeded generator, a kind and tenant drawn per job. Each job is timed
// from its scheduled send time, so a stall of the daemon or of the
// generator counts against every job it delays. The step keeps each job's
// terminal status; check fetches and checks the results afterwards, so
// that neither the fetches nor the checks fall inside the measured window.
func (d *daemonRun) step(rate int, dur time.Duration) *stepResult {
	n := int(math.Ceil(float64(rate) * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	type planned struct {
		at     time.Duration
		kind   *jobKind
		tenant string
	}
	// The mix is a fixed multiset in seeded order, so that every seed
	// offers the same work: turbomapShare of the jobs, cycling through
	// turbomapMix, and quick jobs for the rest.
	plan := make([]planned, n)
	nTM := int(math.Round(turbomapShare * float64(n)))
	var at float64
	for i, j := range d.rng.Perm(n) {
		at += d.rng.ExpFloat64() / float64(rate)
		k := d.kinds[0]
		if j < nTM {
			k = d.kinds[1+turbomapMix[j%len(turbomapMix)]]
		}
		plan[i] = planned{at: time.Duration(at * float64(time.Second)), kind: k, tenant: fmt.Sprintf("tenant-%d", d.rng.Intn(tenants))}
	}

	res := &stepResult{rate: rate, jobs: n, lat: make([]float64, n), lag: make([]float64, n), outcomes: make([]outcome, n)}
	adm := make([]float64, n)
	var finished atomic.Int64 // jobs that reached a terminal state or were refused
	ctx, cancel := context.WithTimeout(context.Background(), dur+2*time.Minute)
	defer cancel()

	// The backlog at time t is the jobs scheduled by t minus the jobs
	// finished by t. It has no cap: jobs the generator could not yet send
	// count as well as jobs queued in the daemon.
	start := time.Now()
	var samples [][2]float64 // (seconds since start, backlog)
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case now := <-tick.C:
				t := now.Sub(start)
				scheduled := sort.Search(n, func(i int) bool { return plan[i].at > t })
				samples = append(samples, [2]float64{t.Seconds(), float64(scheduled) - float64(finished.Load())})
			}
		}
	}()

	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := plan[i]
				due := start.Add(p.at)
				sent := time.Now()
				res.lag[i] = millis(sent.Sub(due))
				spec := p.kind.spec
				spec.Tenant = p.tenant
				o := &res.outcomes[i]
				o.kind = p.kind
				o.id, o.err = d.cl.Submit(ctx, spec)
				adm[i] = millis(time.Since(sent))
				var rej *server.RejectedError
				if errors.As(o.err, &rej) {
					o.shed, o.err = true, nil
					res.lat[i] = math.Inf(1)
					finished.Add(1)
					continue
				}
				if o.err == nil {
					o.st, o.err = d.cl.Stream(ctx, o.id, nil)
				}
				res.lat[i] = millis(time.Since(due))
				finished.Add(1)
			}
		}()
	}
	for i := range plan {
		if wait := time.Until(start.Add(plan[i].at)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()

	window := plan[n-1].at.Seconds()
	var xs, ys []float64
	for _, s := range samples {
		if s[0] <= window {
			xs, ys = append(xs, s[0]), append(ys, s[1])
		}
	}
	res.slope = slope(xs, ys)
	for i, o := range res.outcomes {
		if o.shed {
			res.shed++
			continue
		}
		res.admission = append(res.admission, adm[i])
	}
	fmt.Fprintf(os.Stderr, "perfbench: step %d jobs/s: %d jobs (%d refused) in %.1fs, p50 %.1fms p99 %.1fms, lag p99 %.1fms, backlog slope %.1f/s, rss %.0fMB\n",
		rate, n, res.shed, time.Since(start).Seconds(), median(res.lat), quantile(res.lat, 0.99), quantile(res.lag, 0.99), res.slope, maxRSSMB())
	return res
}

// check fetches the result of every admitted job of the step and counts
// its output check as one operation. A refused job counts as no operation:
// refusals are reported as the shed ratio.
func (d *daemonRun) check(st *stepResult) {
	for _, o := range st.outcomes {
		if o.shed {
			continue
		}
		err := o.err
		var blif []byte
		if err == nil && o.st.State == server.StateDone {
			blif, err = d.cl.Result(context.Background(), o.id)
		}
		if err == nil {
			err = checkJob(o.st, blif, o.kind)
		}
		d.rep.op(fmt.Sprintf("%s job at %d/s", o.kind.name, st.rate), err)
	}
}

// admittedP99 is the p99 latency of the step's admitted jobs.
func (st *stepResult) admittedP99() float64 {
	var lat []float64
	for _, l := range st.lat {
		if !math.IsInf(l, 1) {
			lat = append(lat, l)
		}
	}
	return quantile(lat, 0.99)
}

// slope is the least-squares slope of ys over xs (0 for fewer than two
// points).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// meanDelta is the mean latency, in ms, of the observations added to a
// cumulative /statz summary between two snapshots.
func meanDelta(before, after server.LatencySummary) float64 {
	n := after.Count - before.Count
	if n == 0 {
		return 0
	}
	return (after.SumSeconds - before.SumSeconds) / float64(n) * 1e3
}

// replay is one set-up repetition of the daemon: server.New on a fresh
// copy of the journal files, which it replays and compacts. Writing the
// copy and closing the server are not counted.
func (d *daemonRun) replay(files map[string][]byte) func() (time.Duration, error) {
	dir := filepath.Join(d.cfg.workdir, "replay")
	return func() (time.Duration, error) {
		if err := writeJournal(files, dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		s, err := server.New(server.Config{WorkersPerJob: 1, JournalDir: dir, TraceRingCap: -1})
		if err != nil {
			return 0, err
		}
		spent := time.Since(t0)
		if err := s.Close(); err != nil {
			return 0, err
		}
		if st := s.Stats(); st.Recovered != 0 {
			return 0, fmt.Errorf("replay recovered %d jobs; the traffic left none pending", st.Recovered)
		}
		return spent, nil
	}
}

// replayLayers splits the replay set-up into the journal's public steps:
// load, compact, then the whole of server.New on a fresh copy.
func (d *daemonRun) replayLayers(journal string) error {
	files, err := readJournal(journal)
	if err != nil {
		return err
	}
	dir := filepath.Join(d.cfg.workdir, "replay")
	if err := writeJournal(files, dir); err != nil {
		return err
	}
	t := time.Now()
	pending, _, err := server.LoadJournal(dir)
	if err != nil {
		return err
	}
	d.rep.set("server.journal_load_s", time.Since(t).Seconds())
	t = time.Now()
	if err := server.CompactJournal(dir, pending); err != nil {
		return err
	}
	d.rep.set("server.journal_compact_s", time.Since(t).Seconds())
	return nil
}

// readJournal reads every file of the journal directory dir.
func readJournal(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = b
	}
	return files, nil
}

// writeJournal replaces the directory dir with the journal files.
func writeJournal(files map[string][]byte, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
