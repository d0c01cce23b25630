package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	n := NewNet(4)
	n.AddArc(0, 1, 1)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, 1)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("flow = %d, want 1", f)
	}
}

func TestParallelPaths(t *testing.T) {
	// s -> {1,2,3} -> t, three disjoint unit paths.
	n := NewNet(5)
	for v := 1; v <= 3; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 4, 1)
	}
	if f := n.MaxFlowUpTo(0, 4, 10); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
}

func TestEarlyExit(t *testing.T) {
	n := NewNet(6)
	for v := 1; v <= 4; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 5, 1)
	}
	if f := n.MaxFlowUpTo(0, 5, 2); f != 3 {
		t.Fatalf("early exit should report limit+1 = 3, got %d", f)
	}
}

func TestEarlyExitOnInfPath(t *testing.T) {
	// s -Inf-> a -Inf-> t: one augmenting path carries Inf, which still
	// reports as limit+1.
	n := NewNet(3)
	n.AddArc(0, 1, Inf)
	n.AddArc(1, 2, Inf)
	if f := n.MaxFlowUpTo(0, 2, 5); f != 6 {
		t.Fatalf("flow over an uncuttable path = %d, want limit+1 = 6", f)
	}
}

func TestBottleneckWithInfArcs(t *testing.T) {
	// s -Inf-> a -1-> b -Inf-> t: max flow 1.
	n := NewNet(4)
	n.AddArc(0, 1, Inf)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, Inf)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("flow = %d, want 1", f)
	}
	reach := n.ResidualReach(0)
	if !reach[0] || !reach[1] || reach[2] || reach[3] {
		t.Fatalf("residual reach wrong: %v", reach)
	}
}

func TestNeedsResidualReversal(t *testing.T) {
	// Classic case where a greedy path must be partially undone:
	//   s->a->b->t and s->b, a->t (all unit). Max flow 2 requires routing
	//   through the residual of a->b if BFS first used s->a->b->t.
	n := NewNet(4)
	s, a, b, tt := 0, 1, 2, 3
	n.AddArc(s, a, 1)
	n.AddArc(a, b, 1)
	n.AddArc(b, tt, 1)
	n.AddArc(s, b, 1)
	n.AddArc(a, tt, 1)
	if f := n.MaxFlowUpTo(s, tt, 10); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

// referenceMinCut computes the min s-t cut value by brute force over all
// subsets (for tiny graphs): capacity of arcs from S-side to T-side.
func referenceMaxFlow(nodes int, arcs [][3]int, s, t int) int {
	best := 1 << 30
	for mask := 0; mask < 1<<uint(nodes); mask++ {
		if mask&(1<<uint(s)) == 0 || mask&(1<<uint(t)) != 0 {
			continue
		}
		capSum := 0
		for _, a := range arcs {
			if mask&(1<<uint(a[0])) != 0 && mask&(1<<uint(a[1])) == 0 {
				capSum += a[2]
				if capSum >= best {
					break
				}
			}
		}
		if capSum < best {
			best = capSum
		}
	}
	return best
}

func TestMaxFlowMinCutQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(5)
		nArcs := rng.Intn(3 * nodes)
		var arcs [][3]int
		n := NewNet(nodes)
		for i := 0; i < nArcs; i++ {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if u == v {
				continue
			}
			c := 1 + rng.Intn(3)
			arcs = append(arcs, [3]int{u, v, c})
			n.AddArc(u, v, c)
		}
		s, tt := 0, nodes-1
		got := n.MaxFlowUpTo(s, tt, 1<<20)
		want := referenceMaxFlow(nodes, arcs, s, tt)
		if got != want {
			t.Logf("seed %d: flow %d, brute force %d (arcs %v)", seed, got, want, arcs)
			return false
		}
		// Min-cut consistency: arcs crossing the residual frontier sum to
		// the flow value.
		reach := n.ResidualReach(s)
		if reach[tt] {
			t.Logf("seed %d: sink reachable after max flow", seed)
			return false
		}
		cut := 0
		for _, a := range arcs {
			if reach[a[0]] && !reach[a[1]] {
				cut += a[2]
			}
		}
		if cut != want {
			t.Logf("seed %d: cut %d != flow %d", seed, cut, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestResetReuse rebuilds different networks in one Net and checks the
// verdicts match fresh networks: Reset must fully erase earlier arcs, flows
// and scratch.
func TestResetReuse(t *testing.T) {
	n := NewNet(4)
	n.AddArc(0, 1, Inf)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, Inf)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("first build: flow = %d, want 1", f)
	}
	// Smaller network, different topology.
	n.Reset(3)
	n.AddArc(0, 1, 2)
	n.AddArc(1, 2, 2)
	if f := n.MaxFlowUpTo(0, 2, 10); f != 2 {
		t.Fatalf("after Reset: flow = %d, want 2", f)
	}
	reach := n.ResidualReach(0)
	if !reach[0] || reach[1] || reach[2] {
		t.Fatalf("after Reset: residual reach wrong: %v", reach)
	}
	// Larger than the original, exercising regrowth.
	n.Reset(6)
	for v := 1; v <= 4; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 5, 1)
	}
	if f := n.MaxFlowUpTo(0, 5, 10); f != 4 {
		t.Fatalf("after regrow: flow = %d, want 4", f)
	}
}

// TestWarmNetZeroAlloc pins the arena property: once a Net has been through
// one build/solve cycle at a given size, repeating the cycle allocates
// nothing.
func TestWarmNetZeroAlloc(t *testing.T) {
	n := NewNet(8)
	cycle := func() {
		n.Reset(8)
		for v := 1; v <= 6; v++ {
			n.AddArc(0, v, 1)
			n.AddArc(v, 7, 1)
		}
		if f := n.MaxFlowUpTo(0, 7, 4); f != 5 {
			t.Fatalf("flow = %d, want limit+1 = 5", f)
		}
		n.Reset(8)
		for v := 1; v <= 6; v++ {
			n.AddArc(0, v, 1)
			n.AddArc(v, 7, 1)
		}
		if f := n.MaxFlowUpTo(0, 7, 10); f != 6 {
			t.Fatalf("flow = %d, want 6", f)
		}
		_ = n.ResidualReach(0)
	}
	cycle() // warm up
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Net cycle allocates %.1f objects/run, want 0", allocs)
	}
}
