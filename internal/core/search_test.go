package core

import (
	"testing"

	"turbosyn/internal/decomp"
	"turbosyn/internal/retime"
)

// TestSearchProbesAreCold pins the paper's search: every bisection probe
// starts from the all-ones lower bound, so the sequential Minimize spends
// exactly the label iterations of standalone Feasible probes along the same
// phi sequence plus the final MapAtRatio pass. A probe seeded from a
// neighbouring probe's labels takes a different iteration path, which on
// this circuit breaks the sum.
func TestSearchProbesAreCold(t *testing.T) {
	tc := goldenCases()[3] // fsm_s2_k5_map: TurboMap, several feasible probes
	c := tc.build()
	opts := DefaultOptions()
	opts.K = tc.k
	opts.Decompose = tc.decompose
	opts.Workers = 1
	if !c.IsKBounded(tc.k) {
		var err error
		if c, err = decomp.KBound(c, tc.k); err != nil {
			t.Fatal(err)
		}
	}

	got, err := Minimize(c, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the bisection of minimizeSearch with one fresh probe per phi.
	ub := max(retime.Period(c), 1)
	lo, hi := 1, ub
	best, iters, feasibleProbes := -1, 0, 0
	for lo <= hi {
		mid := (lo + hi) / 2
		ok, st, err := Feasible(c, mid, opts)
		if err != nil {
			t.Fatalf("phi=%d: %v", mid, err)
		}
		iters += st.Iterations
		if ok {
			best, hi = mid, mid-1
			feasibleProbes++
		} else {
			lo = mid + 1
		}
	}
	if feasibleProbes < 2 {
		t.Fatalf("bisection met %d feasible probes; need a later probe below a feasible one", feasibleProbes)
	}
	if best != got.Phi {
		t.Fatalf("replayed bisection found phi %d, Minimize %d", best, got.Phi)
	}
	m, err := MapAtRatio(c, best, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters += m.Stats.Iterations
	if got.Stats.Iterations != iters {
		t.Errorf("Minimize used %d label iterations, cold probes plus the map pass %d",
			got.Stats.Iterations, iters)
	}
}

// TestCacheLookupsMatchAttempts: every decomposition attempt performs
// exactly one cache lookup, and Result.Stats counts both over the same
// probes — at Workers=4 too, where the lookups of lost speculative probes
// count in neither (on this accumulator some of them reach resynthesis).
func TestCacheLookupsMatchAttempts(t *testing.T) {
	tc := goldenCases()[4] // acc12_k5_syn
	c := tc.build()
	if !c.IsKBounded(tc.k) {
		var err error
		if c, err = decomp.KBound(c, tc.k); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.K = tc.k
		opts.Workers = workers
		res, err := Minimize(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.DecompAttempts == 0 || st.CacheShardHits+st.CacheShardMisses != st.DecompAttempts {
			t.Errorf("Workers=%d: cache hits %d + misses %d, decomposition attempts %d",
				workers, st.CacheShardHits, st.CacheShardMisses, st.DecompAttempts)
		}
	}
}
