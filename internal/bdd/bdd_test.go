package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"turbosyn/internal/logic"
)

func randomTT(rng *rand.Rand, nvar int) *logic.TT {
	t := logic.NewTT(nvar)
	for i := 0; i < t.NumBits(); i++ {
		if rng.Intn(2) == 1 {
			t.SetBit(i, true)
		}
	}
	return t
}

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if m.Eval(True, 0) != true || m.Eval(False, 7) != false {
		t.Fatal("terminal evaluation broken")
	}
	for i := 0; i < 3; i++ {
		x := m.Var(i)
		nx := m.NVar(i)
		for a := uint(0); a < 8; a++ {
			want := a&(1<<uint(i)) != 0
			if m.Eval(x, a) != want {
				t.Fatalf("Var(%d) at %d", i, a)
			}
			if m.Eval(nx, a) != !want {
				t.Fatalf("NVar(%d) at %d", i, a)
			}
		}
	}
	// Hash-consing: same variable requested twice gives the same node.
	if m.Var(1) != m.Var(1) {
		t.Fatal("unique table not shared")
	}
}

func TestOpsAgainstTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nvar := 1 + rng.Intn(8)
		m := New(nvar)
		ta, tb := randomTT(rng, nvar), randomTT(rng, nvar)
		a, b := m.FromTT(ta), m.FromTT(tb)
		check := func(name string, got Ref, want *logic.TT) {
			if !m.ToTT(got, nvar).Equal(want) {
				t.Fatalf("%s mismatch (nvar=%d trial=%d)", name, nvar, trial)
			}
		}
		check("and", m.And(a, b), logic.NewTT(nvar).And(ta, tb))
		check("or", m.Or(a, b), logic.NewTT(nvar).Or(ta, tb))
		check("xor", m.Xor(a, b), logic.NewTT(nvar).Xor(ta, tb))
		check("not", m.Not(a), logic.NewTT(nvar).Not(ta))
		v := rng.Intn(nvar)
		check("restrict0", m.Restrict(a, v, false), ta.Cofactor(v, false))
		check("restrict1", m.Restrict(a, v, true), ta.Cofactor(v, true))
	}
}

func TestCanonicity(t *testing.T) {
	// Two structurally different constructions of the same function must
	// produce the identical Ref.
	m := New(4)
	x0, x1, x2 := m.Var(0), m.Var(1), m.Var(2)
	// (x0 AND x1) OR x2  ==  ITE(x2, true, x0 AND x1)
	f := m.Or(m.And(x0, x1), x2)
	g := m.ITE(x2, True, m.And(x1, x0))
	if f != g {
		t.Fatal("equal functions got different refs")
	}
	// De Morgan.
	h1 := m.Not(m.And(x0, x1))
	h2 := m.Or(m.Not(x0), m.Not(x1))
	if h1 != h2 {
		t.Fatal("De Morgan failed")
	}
}

func TestSupport(t *testing.T) {
	m := New(6)
	f := m.And(m.Var(1), m.Xor(m.Var(3), m.Var(5)))
	s := m.Support(f)
	want := []int{1, 3, 5}
	if len(s) != len(want) {
		t.Fatalf("support %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("support %v, want %v", s, want)
		}
	}
}

func TestCutRefsColumnMultiplicity(t *testing.T) {
	// f = (x0 XOR x1) AND x2: with bound set {x0,x1} (k=2) the distinct
	// cofactors are {x2, false}: multiplicity 2.
	m := New(3)
	f := m.And(m.Xor(m.Var(0), m.Var(1)), m.Var(2))
	cut := m.CutRefs(f, 2)
	if len(cut) != 2 {
		t.Fatalf("multiplicity = %d, want 2", len(cut))
	}
	// Brute-force check against CofactorAtAssignment.
	seen := map[Ref]bool{}
	for a := uint(0); a < 4; a++ {
		seen[m.CofactorAtAssignment(f, 2, a)] = true
	}
	if len(seen) != len(cut) {
		t.Fatalf("cut enumeration inconsistent: %d vs %d", len(seen), len(cut))
	}
}

func TestCutRefsQuick(t *testing.T) {
	f := func(seed int64, nvarRaw, kRaw uint8) bool {
		nvar := 1 + int(nvarRaw)%8
		k := int(kRaw) % (nvar + 1)
		rng := rand.New(rand.NewSource(seed))
		m := New(nvar)
		r := m.FromTT(randomTT(rng, nvar))
		cut := m.CutRefs(r, k)
		distinct := map[Ref]bool{}
		for a := uint(0); a < 1<<uint(k); a++ {
			distinct[m.CofactorAtAssignment(r, k, a)] = true
		}
		if len(distinct) != len(cut) {
			return false
		}
		for _, c := range cut {
			if !distinct[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFromTTRoundTrip(t *testing.T) {
	f := func(seed int64, nvarRaw uint8) bool {
		nvar := int(nvarRaw) % 11
		rng := rand.New(rand.NewSource(seed))
		m := New(nvar)
		tt := randomTT(rng, nvar)
		return m.ToTT(m.FromTT(tt), nvar).Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedManagerGrowth(t *testing.T) {
	// Building the same function repeatedly must not grow the node table.
	m := New(8)
	var f Ref
	for i := 0; i < 8; i++ {
		f = m.Or(f, m.And(m.Var(i%8), m.Var((i+1)%8)))
	}
	before := m.NumNodes()
	g := False
	for i := 0; i < 8; i++ {
		g = m.Or(g, m.And(m.Var(i%8), m.Var((i+1)%8)))
	}
	if f != g {
		t.Fatal("rebuild produced different ref")
	}
	if m.NumNodes() != before {
		t.Fatalf("node table grew from %d to %d on rebuild", before, m.NumNodes())
	}
}

func TestPanicsOnBadVar(t *testing.T) {
	m := New(2)
	for name, fn := range map[string]func(){
		"Var":      func() { m.Var(2) },
		"NVar":     func() { m.NVar(-1) },
		"Restrict": func() { m.Restrict(True, 9, false) },
		"CutRefs":  func() { m.CutRefs(True, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkITEChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(16)
		f := True
		for v := 0; v < 16; v++ {
			f = m.Xor(f, m.Var(v))
		}
	}
}
