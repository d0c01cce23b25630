// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with a shared unique table and an ITE-based apply, as used by the paper's
// OBDD-based functional decomposition (Lai/Pan/Pedram style): the column
// multiplicity of a bound set equals the number of distinct subfunctions in
// the BDD cut below the bound variables when those variables are ordered on
// top.
//
// The manager uses a fixed variable order x0 < x1 < ... (x0 at the top).
// Functions are referenced by node index; complement edges are not used, so
// every distinct function has exactly one node. The zero and one terminals
// are indices 0 and 1.
package bdd

import "fmt"

// Ref is a handle to a BDD node (function) inside a Manager.
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use level = numVars
	lo, hi Ref   // cofactors for var=0 / var=1
}

type triple struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns the node and operation caches for one variable order.
type Manager struct {
	nvar     int
	nodes    []node
	unique   map[triple]Ref
	iteMem   map[iteKey]Ref
	limit    int // max node count, 0 = unlimited
	overflow bool
}

// New returns a manager over nvar variables.
func New(nvar int) *Manager {
	if nvar < 0 {
		panic("bdd: negative variable count")
	}
	m := &Manager{
		nvar:   nvar,
		unique: make(map[triple]Ref),
		iteMem: make(map[iteKey]Ref),
	}
	term := int32(nvar)
	m.nodes = append(m.nodes, node{level: term}, node{level: term})
	return m
}

// NewBounded returns a manager that refuses to grow beyond maxNodes live
// nodes (terminals included; maxNodes <= 0 means unlimited). Construction is
// worst-case exponential in the variable count, so bounded managers are how
// callers keep OBDD-based decomposition inside a memory budget: once a
// construction would exceed the ceiling the manager sets its overflow flag
// and returns structurally valid but unspecified results — callers must
// check Overflowed() and discard everything built since the flag was set.
func NewBounded(nvar, maxNodes int) *Manager {
	m := New(nvar)
	if maxNodes > 0 {
		m.limit = maxNodes
	}
	return m
}

// Overflowed reports whether any construction hit the node ceiling. Results
// produced after the first overflow are unspecified and must be discarded.
func (m *Manager) Overflowed() bool { return m.overflow }

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.nvar }

// NumNodes returns the number of live nodes including terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// mk returns the canonical node (level, lo, hi), applying the reduction rule.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := triple{level, lo, hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	if m.limit > 0 && len(m.nodes) >= m.limit {
		// Over budget: flag the overflow and return an arbitrary valid node
		// so in-flight recursions terminate; the caller discards the result.
		m.overflow = true
		return lo
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[key] = r
	return r
}

// Var returns the function x_i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvar {
		panic(fmt.Sprintf("bdd: Var(%d) with %d variables", i, m.nvar))
	}
	return m.mk(int32(i), False, True)
}

// NVar returns NOT x_i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.nvar {
		panic(fmt.Sprintf("bdd: NVar(%d) with %d variables", i, m.nvar))
	}
	return m.mk(int32(i), True, False)
}

// Level returns the decision variable of f, or NumVars for terminals.
func (m *Manager) Level(f Ref) int { return int(m.nodes[f].level) }

// ITE computes if-then-else(f, g, h) = f·g + f'·h, the universal connective.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := iteKey{f, g, h}
	if r, ok := m.iteMem[key]; ok {
		return r
	}
	top := m.nodes[f].level
	if l := m.nodes[g].level; l < top {
		top = l
	}
	if l := m.nodes[h].level; l < top {
		top = l
	}
	f0, f1 := m.cofactorAt(f, top)
	g0, g1 := m.cofactorAt(g, top)
	h0, h1 := m.cofactorAt(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteMem[key] = r
	return r
}

func (m *Manager) cofactorAt(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Not returns NOT f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Restrict fixes variable i of f to val.
func (m *Manager) Restrict(f Ref, i int, val bool) Ref {
	if i < 0 || i >= m.nvar {
		panic(fmt.Sprintf("bdd: Restrict(%d) with %d variables", i, m.nvar))
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if int(n.level) > i {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r Ref
		if int(n.level) == i {
			if val {
				r = n.hi
			} else {
				r = n.lo
			}
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}

// Eval evaluates f under the assignment (bit j of assignment = x_j).
func (m *Manager) Eval(f Ref, assignment uint) bool {
	for f > True {
		n := m.nodes[f]
		if assignment&(1<<uint(n.level)) != 0 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Support returns the variables f depends on, in increasing order.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make([]bool, m.nvar)
	var rec func(Ref)
	rec = func(g Ref) {
		if g <= True || seen[g] {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		vars[n.level] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	var out []int
	for i, b := range vars {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// CutRefs returns the distinct subfunctions of f that appear below the
// boundary between variables [0, k) and [k, nvar): one Ref per distinct
// cofactor of f over all 2^k assignments of the top k variables. This count
// is the column multiplicity used by bound-set selection in functional
// decomposition (bound set = the top k variables).
func (m *Manager) CutRefs(f Ref, k int) []Ref {
	if k < 0 || k > m.nvar {
		panic(fmt.Sprintf("bdd: CutRefs(k=%d) with %d variables", k, m.nvar))
	}
	inCut := make(map[Ref]bool)
	visited := make(map[Ref]bool)
	var cut []Ref
	var rec func(Ref)
	rec = func(g Ref) {
		if int(m.nodes[g].level) >= k { // terminals have level == nvar >= k
			if !inCut[g] {
				inCut[g] = true
				cut = append(cut, g)
			}
			return
		}
		if visited[g] {
			return
		}
		visited[g] = true
		n := m.nodes[g]
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	return cut
}

// CofactorAtAssignment returns the subfunction of f reached by assigning the
// top k variables according to the low k bits of a.
func (m *Manager) CofactorAtAssignment(f Ref, k int, a uint) Ref {
	for int(m.nodes[f].level) < k {
		n := m.nodes[f]
		if a&(1<<uint(n.level)) != 0 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f
}
