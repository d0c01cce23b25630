package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// The package-level entry points are thin wrappers over a throwaway Engine:
// the engine owns the circuit analysis, the decomposition cache (with the
// persisted log, when configured) and the arena pool for exactly one call,
// and its Close flushes the log on every exit path. Results are bit-identical
// to the pooled path — the engine methods are the same code.

// Feasible decides Problem 2: does a mapping with clock period (or, when
// opts.Pipelined, MDR ratio) at most phi exist? It returns the probe's work
// statistics alongside.
func Feasible(c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	return FeasibleContext(context.Background(), c, phi, opts)
}

// FeasibleContext is Feasible under a context: cancellation or deadline
// expiry aborts the probe between sweeps (and within long sweeps) and
// returns a *CancelError wrapping the context's error, with the partial
// work statistics attached.
func FeasibleContext(ctx context.Context, c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return false, Stats{}, err
	}
	defer e.Close()
	return e.FeasibleContext(ctx, phi, opts)
}

// MapAtRatio computes labels and a mapped LUT network for a specific
// feasible phi. It fails if phi is infeasible.
func MapAtRatio(c *netlist.Circuit, phi int, opts Options) (*Result, error) {
	return MapAtRatioContext(context.Background(), c, phi, opts)
}

// MapAtRatioContext is MapAtRatio under a context (see FeasibleContext).
func MapAtRatioContext(ctx context.Context, c *netlist.Circuit, phi int, opts Options) (*Result, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MapAtRatioContext(ctx, phi, opts)
}

// Minimize finds the minimum feasible phi by binary search and returns the
// mapping at that phi. The upper bound follows the paper: the trivial
// one-gate-per-LUT mapping achieves the current clock period, and for the
// MDR objective TurboMap's minimum clock period is itself an upper bound
// (computed first when opts.Decompose is set, mirroring "first run TurboMap
// to get an upper bound UB").
func Minimize(c *netlist.Circuit, opts Options) (*Result, error) {
	return MinimizeContext(context.Background(), c, opts)
}

// MinimizeContext is Minimize under a context. Cancellation or deadline
// expiry aborts the search at the next checkpoint — probes poll an atomic
// flag at sweep granularity, so the abort lands well under a second even on
// large circuits — and returns a *CancelError carrying the phase that
// observed it, the best feasible phi proven so far (-1 when none) and the
// partial work statistics.
func MinimizeContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MinimizeContext(ctx, opts)
}

// minimizeSearch binary-searches the smallest feasible phi in [1, ub].
// ub must be feasible. Every probe starts cold, from the paper's all-ones
// lower bound (see DESIGN.md, "Cold probes"). The accumulated statistics
// cover exactly the probes on the canonical binary-search path, so totals
// match the sequential search; total's ProbesLaunched and ProbesCancelled
// count every probe, and the work of lost speculative probes shows only in
// the live view.
// On an aborting error the returned phi is the best feasible one proven
// before the abort (-1 when none), so the caller can report partial
// progress. Every probe checks its state (and through it, worker arenas)
// out of the engine; newState never runs on this path.
func (e *Engine) minimizeSearch(ub int, opts Options, total *tally, live *obs.Live, guard *runGuard) (int, error) {
	workers := opts.workerCount()
	if workers > 1 && opts.IterBudget <= 0 && ub > 2 {
		return e.speculativeSearch(ub, opts, total, live, guard, workers)
	}
	var ring *obs.Ring
	if opts.Trace != nil {
		ring = opts.Trace.NewRing("search")
	}
	lo, hi := 1, ub
	best := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := e.checkoutState(mid, opts)
		s.attach(e.cache, live, nil)
		s.guard = guard
		var t0 int64
		if ring != nil {
			t0 = ring.Now()
		}
		total.ProbesLaunched++
		total.publish(live)
		ok, err := s.run()
		if ring != nil {
			ring.Span(obs.OpProbe, t0, int64(mid), probeVerdict(ok, err))
		}
		if opts.Logger != nil {
			opts.Logger.Debug("probe", "phi", mid, "feasible", ok,
				"iterations", s.stats.Iterations, "cutChecks", s.stats.CutChecks, "err", err)
		}
		total.merge(&s.stats)
		if err != nil {
			e.checkinState(s)
			return best, err
		}
		if ok {
			best = mid
			opts.Progress.SetBestPhi(mid)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
		e.checkinState(s)
	}
	if best < 0 {
		return -1, fmt.Errorf("core: no feasible target up to %d for %s (is the upper bound wrong?)",
			ub, e.c.Name)
	}
	return best, nil
}

// probe is one asynchronous feasibility decision at a fixed phi.
type probe struct {
	phi    int
	cancel atomic.Bool
	done   chan struct{}
	ok     bool
	err    error // aborting error (ctx, strict budget, contained panic)
	stats  tally
	// Tracing bookkeeping, written only by the search goroutine: the launch
	// time on the search ring, and whether the probe's span was recorded yet
	// (midpoints record at acceptance, everything else at the wind-down join).
	t0      int64
	spanned bool
}

// speculativeSearch runs the same binary search as minimizeSearch but
// probes ahead: alongside the midpoint it launches the midpoints of both
// possible next intervals, so whichever way the current probe resolves, the
// next decision is already in flight. The probe for the branch not taken is
// cancelled (state.run notices via its cancel flag and aborts between
// sweeps). Verdicts are deterministic per phi, so the search visits exactly
// the phis the sequential search would and returns the same minimum.
//
// Every probe goroutine checks a state out of the engine and returns it at
// exit: concurrent probes simply hold distinct pooled states, and a
// cancelled lookahead's state (arenas included) is reusable the moment it is
// checked back in — only fatal aborts poison arenas.
//
// Fault containment: every probe goroutine carries a top-level recover (a
// panic that escapes the label engine's own boundary becomes an
// InternalError instead of killing the process), and the wind-down joins
// every probe ever launched — cancelled lookaheads included — before
// returning, so no goroutine outlives the search and no probe's error is
// dropped on the floor.
func (e *Engine) speculativeSearch(ub int, opts Options, total *tally, live *obs.Live, guard *runGuard, workers int) (best int, err error) {
	// Split the pool between concurrent probes: the midpoint probe is the
	// one blocking progress, the two lookahead probes ride along. Inner
	// worker counts never change results, only scheduling.
	maxProbes := 3
	if workers < maxProbes {
		maxProbes = workers
	}
	inner := workers / maxProbes
	if inner < 1 {
		inner = 1
	}
	popts := opts
	popts.Workers = inner

	var ring *obs.Ring
	if opts.Trace != nil {
		ring = opts.Trace.NewRing("search")
	}
	// record emits a joined probe's span and log line exactly once; verdicts
	// of lost-speculation cancels are marked aborted rather than infeasible.
	record := func(p *probe) {
		if p.spanned {
			return
		}
		p.spanned = true
		cancelled := p.cancel.Load()
		if ring != nil {
			v := probeVerdict(p.ok, p.err)
			if cancelled && p.err == nil {
				v = -2
			}
			ring.Span(obs.OpProbe, p.t0, int64(p.phi), v)
		}
		if opts.Logger != nil {
			opts.Logger.Debug("probe", "phi", p.phi, "feasible", p.ok,
				"cancelled", cancelled, "iterations", p.stats.Iterations, "err", p.err)
		}
	}

	running := make(map[int]*probe)
	var all []*probe // every probe ever launched, for the wind-down join
	launch := func(phi int) {
		if _, ok := running[phi]; ok {
			return
		}
		p := &probe{phi: phi, done: make(chan struct{})}
		if ring != nil {
			p.t0 = ring.Now()
		}
		running[phi] = p
		all = append(all, p)
		total.ProbesLaunched++
		go func() {
			defer close(p.done)
			s := e.checkoutState(phi, popts)
			defer e.checkinState(s)
			defer func() {
				if r := recover(); r != nil {
					p.err = newInternalError(r, "probe", -1, -1)
					// Record the failure on the state so checkin poisons its
					// arenas: the panic escaped the per-component boundary, so
					// nothing about the probe's scratch can be trusted.
					s.fails.fail(p.err)
				}
			}()
			s.attach(e.cache, live, &p.cancel)
			s.guard = guard
			p.ok, p.err = s.run()
			p.stats = s.stats
		}()
	}
	drop := func(p *probe, cancelled bool) {
		delete(running, p.phi)
		if cancelled {
			p.cancel.Store(true)
			total.ProbesCancelled++
		}
	}

	lo, hi := 1, ub
	best = -1
	for lo <= hi {
		mid := (lo + hi) / 2
		launch(mid)
		if left := mid - 1; lo <= left && len(running) < maxProbes {
			launch((lo + left) / 2)
		}
		if right := mid + 1; right <= hi && len(running) < maxProbes {
			launch((right + hi) / 2)
		}
		total.publish(live)
		p := running[mid]
		<-p.done
		drop(p, false)
		record(p)
		total.merge(&p.stats)
		if p.err != nil {
			err = p.err
			break
		}
		if p.ok {
			best = mid
			opts.Progress.SetBestPhi(mid)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
		// Cancel probes that fell outside the remaining interval; they can
		// never become a midpoint again.
		for phi, q := range running {
			if phi < lo || phi > hi {
				drop(q, true)
			}
		}
	}
	// Wind down: cancel whatever is still running, then join every probe
	// ever launched. Any aborting error a non-midpoint probe hit (a strict
	// budget, a contained panic — a lost-speculation cancel is not an error)
	// surfaces here rather than being silently discarded with the probe.
	for _, q := range running {
		q.cancel.Store(true)
		total.ProbesCancelled++
	}
	total.publish(live)
	for _, q := range all {
		<-q.done
		record(q)
		if err == nil && q.err != nil {
			err = q.err
		}
	}
	if err != nil {
		return best, err
	}
	if best < 0 {
		return -1, fmt.Errorf("core: no feasible target up to %d for %s (is the upper bound wrong?)",
			ub, e.c.Name)
	}
	return best, nil
}
