package core

import (
	"testing"

	"turbosyn/internal/decomp"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// TestWarmLabelSweepZeroAlloc pins the tentpole property of the scratch
// arenas: once the arena is warm, a full structural label sweep — computeL,
// expansion build, K-cut flow check and label update for every gate —
// performs zero heap allocation. The sweep runs the TurboMap configuration
// (Decompose off). Resynthesis attempts draw their cone tables, replica
// list, priority orders, lookup key and every decomposition scratch table
// from the arena too (the decomposer's miss path is pinned at zero by
// decomp's TestDecomposeMissZeroAlloc); what they still allocate is what
// outlives the attempt: the key string and tree of a new cache entry, the
// canonical table of an NPN-memo miss, and the inverse-mapped tree and
// replica copy of a successful decomposition. Recording passes allocate the
// cover records they keep. Those are pinned only through the benchmarks.
//
// The property must hold in every observability configuration: with tracing
// off, the obs hooks are single nil checks; with tracing on, every event is a
// slot write into the worker's pre-allocated ring (obs package overhead
// contract), so enabling -trace must not reintroduce allocation either; and
// with pprof labels on (-cpuprofile), every phase switch installs a label
// context pre-built per stage.
func TestWarmLabelSweepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rec    *obs.Recorder
		labels bool
	}{
		{"obs-disabled", nil, false},
		{"obs-enabled", obs.NewRecorder(0), false},
		{"pprof-labels", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs.EnablePprofLabels(tc.labels)
			defer obs.EnablePprofLabels(false)
			c := fsmCircuit(2, 7, 4)()
			opts := DefaultOptions()
			opts.Decompose = false
			opts.Workers = 1
			opts.Trace = tc.rec
			if !c.IsKBounded(opts.K) {
				var err error
				if c, err = decomp.KBound(c, opts.K); err != nil {
					t.Fatal(err)
				}
			}
			s := newState(c, 2, opts)
			if ok, err := s.run(); err != nil || !ok {
				t.Fatalf("phi=2 must be feasible for the suite FSM (ok=%v err=%v)", ok, err)
			}

			var updatable []int
			for _, id := range s.order {
				n := s.c.Nodes[id]
				if n.Kind != netlist.PI && len(n.Fanins) > 0 {
					updatable = append(updatable, id)
				}
			}
			ar := s.arenaFor(0)
			if (ar.ring != nil) != (tc.rec != nil) {
				t.Fatalf("arena ring attached = %v, want %v", ar.ring != nil, tc.rec != nil)
			}
			var st tally
			sweep := func() {
				// Invalidate the decision cache so every node re-runs the full
				// expand + flow decision instead of short-circuiting.
				for i := range s.decided {
					s.decided[i] = false
					s.lastL[i] = -labelInf
				}
				for _, id := range updatable {
					if s.update(id, false, &st, ar) {
						t.Fatal("labels moved after convergence")
					}
				}
			}
			sweep() // warm the arena to its high-water mark
			if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
				t.Fatalf("warm structural label sweep allocates %.1f objects/run, want 0", allocs)
			}
			if st.ExpandBuilds == 0 || st.CutChecks == 0 {
				t.Fatalf("sweep did no decisions (builds=%d, checks=%d)", st.ExpandBuilds, st.CutChecks)
			}
			if tc.rec != nil {
				if events, _ := tc.rec.Totals(); events == 0 {
					t.Fatal("tracing enabled but the sweep recorded no events")
				}
			}
		})
	}
}
