package decomp

import (
	"math/rand"
	"slices"
	"testing"

	"turbosyn/internal/logic"
)

// composedTT returns a random function of n >= 8 inputs with a two-level
// structure (two random 4-input blocks feeding a random root over the
// rest), so that the bound-set search finds extractions to make.
func composedTT(rng *rand.Rand, n int) *logic.TT {
	subs := make([]*logic.TT, 0, n-6)
	block := func(vars ...int) *logic.TT {
		vs := make([]*logic.TT, len(vars))
		for i, v := range vars {
			vs[i] = logic.Var(n, v)
		}
		return randomTT(rng, len(vars)).ComposeBool(vs)
	}
	subs = append(subs, block(0, 1, 2, 3), block(4, 5, 6, 7))
	for v := 8; v < n; v++ {
		subs = append(subs, logic.Var(n, v))
	}
	return randomTT(rng, len(subs)).ComposeBool(subs)
}

// TestDecomposePooledMatchesUnpooled runs the same searches with no pool
// and with one shared pool whose tables come back with stale contents, and
// requires identical trees and outcomes.
func TestDecomposePooledMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pool logic.TTPool
	found := 0
	for trial := 0; trial < 60; trial++ {
		n := 8 + trial%4
		var f *logic.TT
		if trial%3 == 0 {
			f = randomTT(rng, n)
		} else {
			f = composedTT(rng, n)
		}
		prio := rng.Perm(n)
		for depth := 2; depth <= 4; depth++ {
			want, wok, _ := DecomposeEffort(f, 5, depth, prio, Effort{})
			got, gok, _ := DecomposeEffort(f, 5, depth, prio, Effort{Pool: &pool})
			if gok != wok {
				t.Fatalf("trial %d depth %d: pooled ok=%v, unpooled ok=%v", trial, depth, gok, wok)
			}
			if !wok {
				continue
			}
			found++
			if got.NumInputs != want.NumInputs || len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("trial %d depth %d: pooled tree shape differs", trial, depth)
			}
			for i, nd := range want.Nodes {
				if !got.Nodes[i].Func.Equal(nd.Func) || !slices.Equal(got.Nodes[i].Children, nd.Children) {
					t.Fatalf("trial %d depth %d: node %d differs", trial, depth, i)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no search found a tree; the comparison covered nothing")
	}
	if pool.Bytes() == 0 {
		t.Fatal("pooled searches returned no scratch tables to the pool")
	}
}

// TestDecomposeMissZeroAlloc pins the miss path: with a warm pool, a search
// that finds no decomposition allocates nothing, because it returns no
// tree. The function is a random 10-input table at K=5, the shape of
// s420's resynthesis attempts, almost all of which miss: every tier and
// every Roth-Karp bound set is tried and fails.
func TestDecomposeMissZeroAlloc(t *testing.T) {
	f := randomTT(rand.New(rand.NewSource(420)), 10)
	prio := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	var pool logic.TTPool
	var st EffortStats
	eff := Effort{Pool: &pool, Stats: &st}
	miss := func() {
		if _, ok, degraded := DecomposeEffort(f, 5, 3, prio, eff); ok || degraded {
			t.Fatalf("random 10-input function: ok=%v degraded=%v, want a plain miss", ok, degraded)
		}
	}
	miss() // warm the pool
	if st.RothKarpCalls == 0 {
		t.Fatal("the search never reached Roth-Karp")
	}
	if allocs := testing.AllocsPerRun(20, miss); allocs != 0 {
		t.Fatalf("warm miss allocates %.1f objects/run, want 0", allocs)
	}
}
