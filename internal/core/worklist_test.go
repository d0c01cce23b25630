package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"turbosyn/internal/decomp"
	"turbosyn/internal/faultinject"
)

// TestWorklistMatchesFullSweep is the determinism contract of
// Options.NoWorklist: the dirty-set worklist skips exactly the member visits
// that full sweeps would have elided as decision-cache no-ops, so for every
// circuit, worker count and task grain the worklist path must return the
// exact result of the full-sweep path — same phi, same converged labels,
// same LUT count, byte-identical mapped netlist. For the sequential
// configuration the iteration trajectories are identical step for step, so
// every work counter must match too and the visit/skip accounting must
// balance against the full-sweep visit total.
func TestWorklistMatchesFullSweep(t *testing.T) {
	fenceGoroutines(t)
	workerPools := []int{1, 2, 8}
	grains := []int{1, 64}
	cases := goldenCases()
	if testing.Short() {
		// The race CI job runs -short: keep one decomposing FSM, the
		// mapping-only FSM and the cheap LFSR, one pool each side of the
		// sequential/parallel split.
		workerPools = []int{1, 8}
		grains = grains[1:]
		cases = []goldenCase{cases[0], cases[3], cases[5]}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if !c.IsKBounded(tc.k) {
				var err error
				if c, err = decomp.KBound(c, tc.k); err != nil {
					t.Fatal(err)
				}
			}
			base := DefaultOptions()
			base.K = tc.k
			base.Decompose = tc.decompose

			// Full-sweep reference: sequential, worklist off. The parallel
			// determinism contract pins every other configuration to this
			// result.
			ref := base
			ref.Workers = 1
			ref.NoWorklist = true
			want, err := Minimize(c, ref)
			if err != nil {
				t.Fatal(err)
			}
			wantBLIF := blifBytes(t, want.Mapped)
			if want.Stats.DirtySkips != 0 {
				t.Fatalf("full sweeps reported %d dirty skips", want.Stats.DirtySkips)
			}

			for _, workers := range workerPools {
				for _, grain := range grains {
					opts := base
					opts.Workers = workers
					opts.TaskGrain = grain
					got, err := Minimize(c, opts)
					if err != nil {
						t.Fatalf("j%d g%d: %v", workers, grain, err)
					}
					if got.Phi != want.Phi || got.LUTs != want.LUTs {
						t.Errorf("j%d g%d: phi %d/%d, LUTs %d/%d",
							workers, grain, got.Phi, want.Phi, got.LUTs, want.LUTs)
					}
					for id := range want.Labels {
						if got.Labels[id] != want.Labels[id] {
							t.Fatalf("j%d g%d: label[%d] = %d, full sweep %d",
								workers, grain, id, got.Labels[id], want.Labels[id])
						}
					}
					if !bytes.Equal(blifBytes(t, got.Mapped), wantBLIF) {
						t.Errorf("j%d g%d: mapped netlist differs from full-sweep path",
							workers, grain)
					}
					if workers != 1 {
						continue
					}
					// Sequential: trajectories identical, so all work
					// counters match and skips balance visits.
					for _, cnt := range []struct {
						name      string
						got, want int
					}{
						{"Iterations", got.Stats.Iterations, want.Stats.Iterations},
						{"CutChecks", got.Stats.CutChecks, want.Stats.CutChecks},
						{"ExpandBuilds", got.Stats.ExpandBuilds, want.Stats.ExpandBuilds},
						{"ExpandReuses", got.Stats.ExpandReuses, want.Stats.ExpandReuses},
						{"Decompositions", got.Stats.Decompositions, want.Stats.Decompositions},
						{"DecompAttempts", got.Stats.DecompAttempts, want.Stats.DecompAttempts},
						{"PLDChecks", got.Stats.PLDChecks, want.Stats.PLDChecks},
						{"PLDHits", got.Stats.PLDHits, want.Stats.PLDHits},
					} {
						if cnt.got != cnt.want {
							t.Errorf("j1 g%d: %s = %d, full sweep %d",
								grain, cnt.name, cnt.got, cnt.want)
						}
					}
					if got.Stats.SweepNodeVisits+got.Stats.DirtySkips != want.Stats.SweepNodeVisits {
						t.Errorf("j1 g%d: visits %d + skips %d != full-sweep visits %d",
							grain, got.Stats.SweepNodeVisits, got.Stats.DirtySkips,
							want.Stats.SweepNodeVisits)
					}
				}
			}
		})
	}
}

// TestWorklistAvoidsWork pins the perf claim behind the worklist: on the
// binary search (the default Minimize path) the dirty-set drain
// must elide a nonzero number of member visits and record a worklist
// high-water mark no larger than the biggest updatable set could allow.
func TestWorklistAvoidsWork(t *testing.T) {
	fenceGoroutines(t)
	c := faultCircuit(t)
	opts := DefaultOptions()
	opts.Workers = 1
	full := opts
	full.NoWorklist = true
	want, err := Minimize(c, full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Minimize(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.DirtySkips == 0 {
		t.Error("worklist elided no visits on the search")
	}
	if got.Stats.SweepNodeVisits >= want.Stats.SweepNodeVisits {
		t.Errorf("worklist visits %d not below full-sweep visits %d",
			got.Stats.SweepNodeVisits, want.Stats.SweepNodeVisits)
	}
	if got.Stats.WorklistPeak <= 0 {
		t.Errorf("WorklistPeak = %d, want > 0", got.Stats.WorklistPeak)
	}
	if got.Phi != want.Phi || got.LUTs != want.LUTs {
		t.Fatalf("worklist changed the result: phi %d/%d, LUTs %d/%d",
			got.Phi, want.Phi, got.LUTs, want.LUTs)
	}
}

// TestInjectedPanicWorklistWarmRecovers: a contained panic mid-probe leaves
// per-probe dirty bits and decision-cache entries behind on pooled states
// that go back to the engine warm. The next run on the same engine must
// reset all of it — completing bit-identically to the full-sweep one-shot
// path, with the interrupted run's arenas poisoned (Discards > 0).
func TestInjectedPanicWorklistWarmRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by make chaos (-count 2, no -short); trimmed from the -short race budget")
	}
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			full := opts
			full.NoWorklist = true
			want, err := Minimize(c, full)
			if err != nil {
				t.Fatal(err)
			}
			wantBLIF := blifBytes(t, want.Mapped)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			plan, off := faultinject.Activate(faultinject.Config{PanicAtCutCheck: 50})
			res, err := e.Minimize(opts)
			off()
			if plan.Fired(faultinject.KindPanicCutCheck) == 0 {
				t.Fatalf("fault never fired (only %d cut checks)",
					plan.Hits(faultinject.KindPanicCutCheck))
			}
			if err == nil || res != nil {
				t.Fatalf("contained panic must surface as an error (err=%v res=%v)", err, res)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error is not an *InternalError: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("panicked run poisoned no arenas: %+v", ps)
			}

			res, err = e.Minimize(opts)
			if err != nil {
				t.Fatalf("engine did not recover after a contained panic: %v", err)
			}
			if res.Phi != want.Phi || res.LUTs != want.LUTs {
				t.Fatalf("post-panic worklist run diverged from full sweeps: phi %d/%d, LUTs %d/%d",
					res.Phi, want.Phi, res.LUTs, want.LUTs)
			}
			if !bytes.Equal(blifBytes(t, res.Mapped), wantBLIF) {
				t.Error("post-panic worklist run's netlist diverged from the full-sweep path")
			}
		})
	}
}

// TestInjectedCancelWorklistMidDrain: cancellation from a sweep checkpoint
// aborts a fast pass mid-drain, stranding half-cleared dirty bits. The
// engine must poison the interrupted checkouts and the next run must drain
// to the same fixpoint as the full-sweep one-shot path.
func TestInjectedCancelWorklistMidDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by make chaos (-count 2, no -short); trimmed from the -short race budget")
	}
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			full := opts
			full.NoWorklist = true
			want, err := Minimize(c, full)
			if err != nil {
				t.Fatal(err)
			}
			wantBLIF := blifBytes(t, want.Mapped)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			ctx, cancel := context.WithCancel(context.Background())
			plan, off := faultinject.Activate(faultinject.Config{
				CancelAtSweep: 3, OnCancel: cancel,
			})
			res, err := e.MinimizeContext(ctx, opts)
			off()
			cancel()
			if plan.Fired(faultinject.KindCancelSweep) == 0 {
				t.Fatalf("cancel point never fired (only %d sweeps)",
					plan.Hits(faultinject.KindCancelSweep))
			}
			if err == nil || res != nil {
				t.Fatalf("cancelled run must surface an error (err=%v res=%v)", err, res)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("cancelled run poisoned no arenas: %+v", ps)
			}

			res, err = e.Minimize(opts)
			if err != nil {
				t.Fatalf("engine did not recover after cancellation: %v", err)
			}
			if res.Phi != want.Phi || res.LUTs != want.LUTs {
				t.Fatalf("post-cancel worklist run diverged from full sweeps: phi %d/%d, LUTs %d/%d",
					res.Phi, want.Phi, res.LUTs, want.LUTs)
			}
			if !bytes.Equal(blifBytes(t, res.Mapped), wantBLIF) {
				t.Error("post-cancel worklist run's netlist diverged from the full-sweep path")
			}
		})
	}
}
