package decomp

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
)

func TestAssociativeFastPathShapes(t *testing.T) {
	cases := []struct {
		name  string
		fn    *logic.TT
		k     int
		depth int
	}{
		{"and12", logic.AndAll(12), 4, 2},
		{"or15", logic.OrAll(15), 4, 2},
		{"xor16", logic.XorAll(16), 4, 2},
		{"nand9", logic.NandAll(9), 3, 2},
		{"nor8", logic.NorAll(8), 3, 2},
		{"xnor8", logic.NewTT(8).Not(logic.XorAll(8)), 4, 2},
	}
	for _, tc := range cases {
		tr, ok := Decompose(tc.fn, tc.k, tc.depth, nil)
		if !ok {
			t.Errorf("%s: decomposition failed", tc.name)
			continue
		}
		if tr.MaxFanin() > tc.k {
			t.Errorf("%s: fanin %d > %d", tc.name, tr.MaxFanin(), tc.k)
		}
		if tr.Depth() > tc.depth {
			t.Errorf("%s: depth %d > %d", tc.name, tr.Depth(), tc.depth)
		}
		if !tr.TT().Equal(tc.fn) {
			t.Errorf("%s: function changed", tc.name)
		}
	}
}

func TestAssociativeRespectsBudget(t *testing.T) {
	// 16-input AND at K=2 needs depth 4; budget 3 must fail cleanly.
	if _, ok := Decompose(logic.AndAll(16), 2, 3, nil); ok {
		t.Fatal("budget violation accepted")
	}
	if tr, ok := Decompose(logic.AndAll(16), 2, 4, nil); !ok || tr.Depth() > 4 {
		t.Fatal("depth-4 tree should exist")
	}
}

func TestAssociativeEmbeddedSupport(t *testing.T) {
	// An AND over a scattered subset of a larger variable space must still
	// hit the fast path after support normalization.
	f := logic.Const(10, true)
	for _, v := range []int{1, 3, 4, 6, 7, 8, 9} {
		f.And(f, logic.Var(10, v))
	}
	tr, ok := Decompose(f, 3, 2, nil)
	if !ok {
		t.Fatal("embedded AND not decomposed")
	}
	if !tr.TT().Equal(f) {
		t.Fatal("function changed")
	}
}

// TestAssocShapeMatchesTableComparison checks the counting shape test
// against the definition it replaced: equality with materialized
// AndAll/OrAll/NandAll/NorAll tables, then the parity test.
func TestAssocShapeMatchesTableComparison(t *testing.T) {
	ref := func(f *logic.TT) (func(int) *logic.TT, bool) {
		m := f.NumVars()
		switch {
		case f.Equal(logic.AndAll(m)):
			return logic.AndAll, false
		case f.Equal(logic.OrAll(m)):
			return logic.OrAll, false
		case f.Equal(logic.NandAll(m)):
			return logic.AndAll, true
		case f.Equal(logic.NorAll(m)):
			return logic.OrAll, true
		}
		if _, inv, ok := f.IsParity(); ok {
			return logic.XorAll, inv
		}
		return nil, false
	}
	rng := rand.New(rand.NewSource(3))
	for m := 0; m <= 12; m++ {
		base := []*logic.TT{
			logic.AndAll(m), logic.OrAll(m), logic.NandAll(m), logic.NorAll(m),
			logic.XorAll(m), logic.NewTT(m).Not(logic.XorAll(m)), randomTT(rng, m),
		}
		cases := base
		for _, f := range base {
			// One flipped minterm: single-minterm and single-zero tables at
			// other positions, and near-parity tables.
			g := f.Clone()
			i := rng.Intn(g.NumBits())
			g.SetBit(i, !g.Bit(i))
			cases = append(cases, g)
		}
		for _, f := range cases {
			gotMk, gotInv := assocShape(f)
			wantMk, wantInv := ref(f)
			if (gotMk == nil) != (wantMk == nil) ||
				gotMk != nil && (gotInv != wantInv || !gotMk(m).Equal(wantMk(m))) {
				t.Fatalf("%d vars, %s: shape (found=%v, invert=%v), want (found=%v, invert=%v)",
					m, f, gotMk != nil, gotInv, wantMk != nil, wantInv)
			}
		}
	}
}
