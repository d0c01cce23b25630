package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics republishes the latest progress snapshot as live run metrics: a
// Prometheus text-format endpoint (ServeHTTP) and an expvar-compatible value
// (Expvar). Feed it from an Options.Progress callback:
//
//	m := &obs.Metrics{}
//	opts.Progress = m.Update
//	release := m.PublishExpvar("")  // or a run-id-scoped name
//	defer release()
//	http.Handle("/metrics", m)
//
// Update is one atomic pointer store, so the callback adds nothing
// measurable to the snapshot path.
type Metrics struct {
	cur atomic.Pointer[Snapshot]
}

// expvarSlots backs PublishExpvar: expvar.Publish panics on a duplicate
// name and has no unpublish, so each name is published to the standard
// registry exactly once, as an indirection through a swappable function
// pointer. Re-publishing a name swaps the target; releasing swaps in nil.
var (
	expvarMu    sync.Mutex
	expvarSlots = map[string]*atomic.Pointer[func() any]{}
)

// PublishExpvar registers fn in the process-wide expvar registry under
// name, idempotently: unlike expvar.Publish, publishing the same name
// again never panics — the previous function is replaced (last writer
// wins). This is what lets many engine runs live in one daemon process.
// The returned release function detaches fn (the expvar value then reads
// as null) and frees the reference; calling it more than once is safe,
// and a later re-publish of the name wins over an earlier release.
func PublishExpvar(name string, fn func() any) (release func()) {
	expvarMu.Lock()
	slot, ok := expvarSlots[name]
	if !ok {
		slot = &atomic.Pointer[func() any]{}
		expvarSlots[name] = slot
		expvar.Publish(name, expvar.Func(func() any {
			if f := slot.Load(); f != nil && *f != nil {
				return (*f)()
			}
			return nil
		}))
	}
	slot.Store(&fn)
	expvarMu.Unlock()
	return func() {
		// Release only if fn is still the published target; a newer
		// publish under the same name must not be torn down by an old
		// release.
		expvarMu.Lock()
		if slot.Load() == &fn {
			slot.Store(nil)
		}
		expvarMu.Unlock()
	}
}

// PublishExpvar publishes the metrics' latest snapshot under
// "turbosyn.<scope>" (or plain "turbosyn" for an empty scope). Scope it by
// run id when several engines share a process — the daemon's debug mux
// does — so concurrent runs never clobber each other's series.
func (m *Metrics) PublishExpvar(scope string) (release func()) {
	name := "turbosyn"
	if scope != "" {
		name = "turbosyn." + scope
	}
	return PublishExpvar(name, m.Expvar)
}

// Update records the latest snapshot; use it directly as the progress
// callback (or call it from one).
func (m *Metrics) Update(s Snapshot) { m.cur.Store(&s) }

// Latest returns the most recent snapshot (zero value before the first
// Update).
func (m *Metrics) Latest() Snapshot {
	if s := m.cur.Load(); s != nil {
		return *s
	}
	return Snapshot{}
}

// Expvar returns the latest snapshot as a plain value for
// expvar.Publish(..., expvar.Func(m.Expvar)).
func (m *Metrics) Expvar() any { return m.Latest() }

// gauges lists the exported numeric series, sorted by name: the snapshot's
// own three and one per CounterTable entry.
func (s Snapshot) gauges() []gauge {
	done := 0.0
	if s.Done {
		done = 1
	}
	gs := []gauge{
		{"turbosyn_elapsed_seconds", "wall time since the run started", s.Elapsed.Seconds()},
		{"turbosyn_best_phi", "smallest feasible phi proven so far (-1 = none)", float64(s.BestPhi)},
		{"turbosyn_done", "1 once the run has delivered its final snapshot", done},
	}
	v := s.Stats.vals()
	for i, c := range CounterTable {
		gs = append(gs, gauge{c.Name, c.Help, float64(v[i])})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	return gs
}

type gauge struct {
	name, help string
	value      float64
}

// ServeHTTP writes the latest snapshot in Prometheus text exposition format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	s := m.Latest()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP turbosyn_run_info run identity (labels carry the run id and phase)\n")
	fmt.Fprintf(w, "# TYPE turbosyn_run_info gauge\n")
	fmt.Fprintf(w, "turbosyn_run_info{run_id=%q,phase=%q} 1\n", s.RunID, s.Phase)
	for _, g := range s.gauges() {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.name, g.help, g.name, g.name, g.value)
	}
}
