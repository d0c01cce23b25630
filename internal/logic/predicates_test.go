package logic

import (
	"math/rand"
	"slices"
	"testing"
)

// The old cofactor-and-compare definitions of the support predicates, kept
// as the reference the in-place versions must match.

func refDependsOn(t *TT, i int) bool {
	return !t.Cofactor(i, false).Equal(t.Cofactor(i, true))
}

func refSupport(t *TT) []int {
	var s []int
	for i := 0; i < t.NumVars(); i++ {
		if refDependsOn(t, i) {
			s = append(s, i)
		}
	}
	return s
}

func refIsParity(t *TT) (support []int, invert, ok bool) {
	support = refSupport(t)
	p := Const(t.NumVars(), false)
	for _, i := range support {
		p.Xor(p, Var(t.NumVars(), i))
	}
	if p.Equal(t) {
		return support, false, true
	}
	if NewTT(t.NumVars()).Not(p).Equal(t) {
		return support, true, true
	}
	return nil, false, false
}

// predicateCases returns tables of 0..12 variables that reach every branch
// of the predicates: random tables, tables independent of a random subset of
// their variables, parity functions over a random subset (plain and
// complemented) and parity functions with one minterm flipped.
func predicateCases(rng *rand.Rand) []*TT {
	var out []*TT
	for nvar := 0; nvar <= 12; nvar++ {
		for trial := 0; trial < 12; trial++ {
			f := randomTT(rng, nvar)
			out = append(out, f.Clone())
			for i := 0; i < nvar; i++ {
				if rng.Intn(2) == 0 {
					f.CofactorInPlace(i, rng.Intn(2) == 0)
				}
			}
			out = append(out, f)

			p := Const(nvar, rng.Intn(2) == 0)
			for i := 0; i < nvar; i++ {
				if rng.Intn(3) > 0 {
					p.Xor(p, Var(nvar, i))
				}
			}
			out = append(out, p)
			q := p.Clone()
			m := rng.Intn(q.NumBits())
			q.SetBit(m, !q.Bit(m))
			out = append(out, q)
		}
	}
	return out
}

func TestPredicatesMatchCofactorDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, f := range predicateCases(rng) {
		for i := 0; i < f.NumVars(); i++ {
			if got, want := f.DependsOn(i), refDependsOn(f, i); got != want {
				t.Fatalf("%d vars, %s: DependsOn(%d) = %v, want %v", f.NumVars(), f, i, got, want)
			}
		}
		if got, want := f.Support(), refSupport(f); !slices.Equal(got, want) {
			t.Fatalf("%d vars, %s: Support = %v, want %v", f.NumVars(), f, got, want)
		}
		gs, gi, gok := f.IsParity()
		ws, wi, wok := refIsParity(f)
		if gok != wok || gi != wi || !slices.Equal(gs, ws) {
			t.Fatalf("%d vars, %s: IsParity = (%v, %v, %v), want (%v, %v, %v)",
				f.NumVars(), f, gs, gi, gok, ws, wi, wok)
		}
	}
}

func TestPredicatesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nvar := range []int{3, 6, 12} {
		f := randomTT(rng, nvar)
		buf := make([]int, 0, nvar)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"DependsOn", func() {
				for i := 0; i < nvar; i++ {
					f.DependsOn(i)
				}
			}},
			{"AppendSupport", func() { buf = f.AppendSupport(buf[:0]) }},
			{"IsParity", func() {
				if _, _, ok := f.IsParity(); ok {
					t.Fatal("random table reported as parity")
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("%d vars: %s allocates %.1f objects/run, want 0", nvar, tc.name, allocs)
			}
		}
	}
}
