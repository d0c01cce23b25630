// Package decomp implements the two decomposition engines of the flow:
//
//   - Roth–Karp (bound-set) functional decomposition on truth tables, with
//     BDD-backed column-multiplicity counting — the paper's "OBDD based
//     functional decomposition" used by FlowSYN and by TurboSYN's sequential
//     resynthesis step; and
//   - structural gate decomposition (K-bounding) that turns wide gates into
//     trees of K-input gates, the preprocessing the paper delegates to
//     balanced tree decomposition / DMIG.
package decomp

import (
	"cmp"
	"fmt"
	"slices"

	"turbosyn/internal/bdd"
	"turbosyn/internal/logic"
)

// RothKarp decomposes f as g(alpha_1(A), ..., alpha_e(A), B) for the given
// bound set A (indices into f's variables); B is the complement. e is the
// code width ceil(log2 mu) for column multiplicity mu. maxCodeBits limits e
// (0 = unlimited). ok=false when mu needs more bits than allowed.
type RothKarpResult struct {
	BoundSet []int // f-variable indices encoded by the alphas
	FreeSet  []int // f-variable indices passed through to g
	// Alphas are functions over len(BoundSet) variables (variable j =
	// BoundSet[j]).
	Alphas []*logic.TT
	// G ranges over len(Alphas)+len(FreeSet) variables: the alpha outputs
	// first, then the free variables in FreeSet order.
	G *logic.TT
}

// ColumnMultiplicity returns the number of distinct subfunctions of f over
// the free variables as the bound-set variables range over all assignments.
// It uses the BDD cut construction: reorder f so the bound set sits on top,
// then count the distinct functions crossing the boundary.
func ColumnMultiplicity(f *logic.TT, boundSet []int) int {
	n := f.NumVars()
	order := varOrder(n, boundSet)
	m := bdd.New(n)
	root := m.FromTT(f.Expand(n, order))
	return len(m.CutRefs(root, len(boundSet)))
}

// BoundedColumnMultiplicity is ColumnMultiplicity under a BDD node ceiling:
// ok=false when the BDD construction (worst-case exponential) exceeded
// maxNodes and the count is unusable. maxNodes <= 0 means unlimited.
func BoundedColumnMultiplicity(f *logic.TT, boundSet []int, maxNodes int) (int, bool) {
	n := f.NumVars()
	order := varOrder(n, boundSet)
	m := bdd.NewBounded(n, maxNodes)
	root := m.FromTT(f.Expand(n, order))
	if m.Overflowed() {
		return 0, false
	}
	return len(m.CutRefs(root, len(boundSet))), true
}

// codeBits returns the Roth-Karp code width for column multiplicity mu:
// ceil(log2 mu), floored at one wire. RothKarp fails exactly when
// codeBits(mu) > maxCodeBits, which the BDD pre-screen of DecomposeEffort
// relies on.
func codeBits(mu int) int {
	e := 0
	for 1<<uint(e) < mu {
		e++
	}
	if e == 0 {
		e = 1
	}
	return e
}

// varOrder returns varMap for TT.Expand placing boundSet at positions
// 0..k-1 and the remaining variables afterwards in increasing order.
// varMap[j] = new position of old variable j.
func varOrder(n int, boundSet []int) []int {
	inBound := make([]int, n)
	for i := range inBound {
		inBound[i] = -1
	}
	for pos, v := range boundSet {
		inBound[v] = pos
	}
	varMap := make([]int, n)
	next := len(boundSet)
	for v := 0; v < n; v++ {
		if inBound[v] >= 0 {
			varMap[v] = inBound[v]
		} else {
			varMap[v] = next
			next++
		}
	}
	return varMap
}

// RothKarp performs the decomposition for a specific bound set.
func RothKarp(f *logic.TT, boundSet []int, maxCodeBits int) (*RothKarpResult, bool) {
	freeSet, alphas, g, ok := rothKarp(f, boundSet, maxCodeBits, nil, nil, nil)
	if !ok {
		return nil, false
	}
	return &RothKarpResult{BoundSet: boundSet, FreeSet: freeSet, Alphas: alphas, G: g}, true
}

// rothKarp is RothKarp with the free set and the alphas appended to the
// given slices (callers may back them with fixed storage). The alphas, G
// and every column pattern come from pool; on failure all of them are
// already back in the pool.
func rothKarp(f *logic.TT, boundSet []int, maxCodeBits int, pool *logic.TTPool, freeSet []int, alphas []*logic.TT) ([]int, []*logic.TT, *logic.TT, bool) {
	n := f.NumVars()
	k := len(boundSet)
	if k == 0 || k >= n {
		return nil, nil, nil, false
	}
	var seen uint32 // n <= logic.MaxVars
	for _, v := range boundSet {
		if v < 0 || v >= n || seen&(1<<uint(v)) != 0 {
			// Format a copy: boundSet itself must not escape.
			panic(fmt.Sprintf("decomp: bad bound set %v for %d vars", slices.Clone(boundSet), n))
		}
		seen |= 1 << uint(v)
	}
	for v := 0; v < n; v++ {
		if seen&(1<<uint(v)) == 0 {
			freeSet = append(freeSet, v)
		}
	}
	nb := len(freeSet)

	// A column pattern is the subfunction over the free variables for one
	// bound assignment a; equal patterns share a class, numbered in order of
	// first appearance. Alpha i holds bit i of a's class. Once more than
	// 2^emax classes exist the code cannot fit, so the scan stops there.
	emax := k // mu <= 2^k
	if maxCodeBits > 0 && maxCodeBits < k {
		emax = maxCodeBits
	}
	for i := 0; i < emax; i++ {
		alphas = append(alphas, pool.Get(k).SetConst(false))
	}
	var repBuf [64]*logic.TT // holds the 2^emax classes while emax <= 6
	reps := repBuf[:0]
	col := pool.Get(nb)
	for a := 0; a < 1<<uint(k); a++ {
		var base uint
		for j, v := range boundSet {
			if a&(1<<uint(j)) != 0 {
				base |= 1 << uint(v)
			}
		}
		col.SetConst(false)
		for b := 0; b < 1<<uint(nb); b++ {
			x := base
			for j, v := range freeSet {
				if b&(1<<uint(j)) != 0 {
					x |= 1 << uint(v)
				}
			}
			if f.Eval(x) {
				col.SetBit(b, true)
			}
		}
		id := -1
		for i, r := range reps {
			if r.Equal(col) {
				id = i
				break
			}
		}
		if id < 0 {
			id = len(reps)
			if id >= 1<<uint(emax) {
				pool.Put(col)
				putAll(pool, reps)
				putAll(pool, alphas)
				return nil, nil, nil, false
			}
			reps = append(reps, col)
			col = pool.Get(nb)
		}
		for i, alpha := range alphas {
			if id&(1<<uint(i)) != 0 {
				alpha.SetBit(a, true)
			}
		}
	}
	pool.Put(col)
	mu := len(reps)
	e := codeBits(mu) // <= emax: the scan above never exceeded 2^emax classes
	putAll(pool, alphas[e:])
	alphas = alphas[:e]

	g := pool.Get(e + nb).SetConst(false)
	for idx := 0; idx < g.NumBits(); idx++ {
		code := idx & (1<<uint(e) - 1)
		if code >= mu {
			continue // unused code: don't-care, fixed to 0
		}
		if reps[code].Bit(idx >> uint(e)) {
			g.SetBit(idx, true)
		}
	}
	putAll(pool, reps)
	return freeSet, alphas, g, true
}

func putAll(pool *logic.TTPool, ts []*logic.TT) {
	for _, t := range ts {
		pool.Put(t)
	}
}

// Verify recomposes the decomposition and compares with f exhaustively.
func (r *RothKarpResult) Verify(f *logic.TT) bool {
	n := f.NumVars()
	subs := make([]*logic.TT, len(r.Alphas)+len(r.FreeSet))
	for i, a := range r.Alphas {
		subs[i] = a.Expand(n, r.BoundSet)
	}
	for i, v := range r.FreeSet {
		subs[len(r.Alphas)+i] = logic.Var(n, v)
	}
	return r.G.Compose(subs).Equal(f)
}

// Tree is a multi-level decomposition of a function into nodes of bounded
// fanin. Leaves are the original inputs 0..NumInputs-1; internal nodes are
// numbered NumInputs+i for Nodes[i]. Root is always the last node.
type Tree struct {
	NumInputs int
	Nodes     []TreeNode
}

// TreeNode computes Func over its children (child j = variable j of Func).
type TreeNode struct {
	Func     *logic.TT
	Children []int
}

// Root returns the root node reference (NumInputs + len(Nodes) - 1).
func (t *Tree) Root() int { return t.NumInputs + len(t.Nodes) - 1 }

// Depth returns the maximum node depth of the tree (a single node is 1).
func (t *Tree) Depth() int {
	depth := make([]int, t.NumInputs+len(t.Nodes))
	for i, nd := range t.Nodes {
		d := 0
		for _, c := range nd.Children {
			if depth[c] > d {
				d = depth[c]
			}
		}
		depth[t.NumInputs+i] = d + 1
	}
	return depth[t.Root()]
}

// Eval computes the tree's function over its NumInputs leaves.
func (t *Tree) Eval(assignment uint) bool {
	vals := make([]bool, t.NumInputs+len(t.Nodes))
	for i := 0; i < t.NumInputs; i++ {
		vals[i] = assignment&(1<<uint(i)) != 0
	}
	for i, nd := range t.Nodes {
		var a uint
		for j, c := range nd.Children {
			if vals[c] {
				a |= 1 << uint(j)
			}
		}
		vals[t.NumInputs+i] = nd.Func.Eval(a)
	}
	return vals[t.Root()]
}

// TT materializes the tree's function.
func (t *Tree) TT() *logic.TT {
	out := logic.NewTT(t.NumInputs)
	for i := 0; i < out.NumBits(); i++ {
		if t.Eval(uint(i)) {
			out.SetBit(i, true)
		}
	}
	return out
}

// MaxFanin returns the largest node fanin.
func (t *Tree) MaxFanin() int {
	m := 0
	for _, nd := range t.Nodes {
		if len(nd.Children) > m {
			m = len(nd.Children)
		}
	}
	return m
}

// Effort bounds the work one Decompose call may spend. The zero value means
// unlimited effort: the exact search the paper describes, byte-identical to
// DecomposeEffort-free callers. Positive bounds trade completeness for
// predictable worst-case cost; a search truncated by a bound reports
// degraded=true so callers can count the quality loss (see
// core.Stats.Degradations).
type Effort struct {
	// BDDNodes, when positive, pre-screens every candidate bound set with a
	// node-bounded OBDD column-multiplicity count (the Lai/Pan/Pedram cut
	// construction): candidates whose BDD exceeds the ceiling are skipped
	// as degraded instead of running the exponential extraction. Candidates
	// within the ceiling behave exactly as without the bound — the BDD
	// pre-screen decides the same predicate RothKarp itself would.
	BDDNodes int
	// MaxBoundSets, when positive, caps the total bound-set candidates
	// examined across the whole Decompose call; the search stops (degraded)
	// when the allowance runs out.
	MaxBoundSets int
	// Stats, when non-nil, accumulates the work the call actually performed
	// (observability only — it never influences the search, so it is not
	// part of decomposition-cache keys).
	Stats *EffortStats
	// Pool, when non-nil, supplies every scratch table of the call —
	// cofactors, projections, column patterns, codes and composition
	// functions — and gets them all back before the call returns, so with a
	// warm pool the call allocates only the tree it returns. Like Stats it
	// never influences the search and is not part of cache keys. The pool
	// has one owner; the call must not share it with another goroutine.
	Pool *logic.TTPool
}

// EffortStats counts the work of one or more Decompose calls when collected
// via Effort.Stats.
type EffortStats struct {
	// BoundSetsExamined is how many candidate bound sets the window scan
	// actually examined (cache hits replay none).
	BoundSetsExamined int
	// RothKarpCalls is how many full Roth-Karp extractions ran (candidates
	// the BDD pre-screen settled without extracting are not counted). The
	// warm-cache gate pins its skip rate on this counter.
	RothKarpCalls int
	// ShannonSplits counts trees built by the Shannon-cofactor fast tier.
	ShannonSplits int
	// DisjointPeels counts root nodes built by the disjoint literal-peel
	// fast tier.
	DisjointPeels int
}

// effortState tracks consumption of one Decompose call's Effort.
type effortState struct {
	eff      Effort
	examined int
	rothkarp int
	shannon  int
	disjoint int
	degraded bool
}

// record adds the call's work to eff.Stats, when set.
func (es *effortState) record() {
	if st := es.eff.Stats; st != nil {
		st.BoundSetsExamined += es.examined
		st.RothKarpCalls += es.rothkarp
		st.ShannonSplits += es.shannon
		st.DisjointPeels += es.disjoint
	}
}

// allow reports whether one more bound-set candidate may be examined,
// marking the search degraded when the allowance just ran out.
func (es *effortState) allow() bool {
	if es.eff.MaxBoundSets > 0 && es.examined >= es.eff.MaxBoundSets {
		es.degraded = true
		return false
	}
	es.examined++
	return true
}

// screen applies the BDD column-multiplicity pre-screen to a candidate
// bound set of f that must encode into at most maxCodeBits wires. It
// returns proceed=false when the candidate is settled without running the
// extraction: either provably infeasible (same predicate RothKarp checks)
// or over the BDD budget (marked degraded).
func (es *effortState) screen(f *logic.TT, bound []int, maxCodeBits int) (proceed bool) {
	if es.eff.BDDNodes <= 0 {
		return true
	}
	mu, ok := BoundedColumnMultiplicity(f, bound, es.eff.BDDNodes)
	if !ok {
		es.degraded = true
		return false
	}
	return codeBits(mu) <= maxCodeBits
}

// Decompose expresses f as a tree of at-most-K-input nodes of depth at most
// depthBudget, searching bound sets in the priority order of the inputs:
// inputs earlier in priority are preferred inside bound sets (the paper
// sorts by effective label, so early-arriving signals sink to the leaves
// and late ones stay near the root). priority may be nil for natural order.
// ok=false when the search fails within the budget.
func Decompose(f *logic.TT, k, depthBudget int, priority []int) (*Tree, bool) {
	tr, ok, _ := DecomposeEffort(f, k, depthBudget, priority, Effort{})
	return tr, ok
}

// DecomposeEffort is Decompose under a work budget. degraded reports that
// the budget truncated the search: candidate bound sets were skipped, so a
// failure (or a worse tree) may be a budget artifact rather than a real
// infeasibility. With a zero Effort the search — and its outcome — is
// identical to Decompose.
func DecomposeEffort(f *logic.TT, k, depthBudget int, priority []int, eff Effort) (*Tree, bool, bool) {
	if k < 2 {
		return nil, false, false
	}
	n := f.NumVars()
	es := effortState{eff: eff}
	defer es.record()
	// rank: lower = prefer inside bound sets (earlier-arriving signal).
	// Inputs missing from priority rank 0.
	var refBuf, rankBuf [logic.MaxVars]int
	refs, rank := refBuf[:n], rankBuf[:n]
	for v := range refs {
		refs[v] = v
		if priority == nil {
			rank[v] = v
		}
	}
	for i, v := range priority {
		if v >= 0 && v < n {
			rank[v] = i
		}
	}
	tr := Tree{NumInputs: n}
	root, ok := decomposeOver(f, refs, rank, k, depthBudget, &tr, &es)
	if !ok {
		return nil, false, es.degraded
	}
	if root != tr.Root() {
		panic("decomp: root bookkeeping broken")
	}
	return &Tree{NumInputs: n, Nodes: tr.Nodes}, true, es.degraded
}

// decomposeOver decomposes f, whose variable j corresponds to tree reference
// refs[j] with bound-set priority rank[j], appending nodes to tr and
// returning the root reference (alpha nodes get the rank of their latest
// input, keeping the cascade balanced). f, refs and rank stay the
// caller's: scratch tables come from es.eff.Pool and go back to it, and
// node functions are fresh tables.
//
// One invocation handles one tree level: it repeatedly extracts disjoint
// bound sets into alpha nodes — never re-encoding an alpha created at this
// level, so all of them sit side by side one level deep — and then recurses
// on the shrunken composition function with one level less budget.
func decomposeOver(f *logic.TT, refs, rank []int, k, depthBudget int, tr *Tree, es *effortState) (int, bool) {
	pool := es.eff.Pool
	// Normalize to the support. refBuf and rankBuf hold this level's
	// variables from here on.
	var supBuf, refBuf, rankBuf [logic.MaxVars]int
	if support := f.AppendSupport(supBuf[:0]); len(support) < f.NumVars() {
		f = projectTT(pool.Get(len(support)), f, support)
		defer pool.Put(f)
		refs = appendAt(refBuf[:0], support, refs)
		rank = appendAt(rankBuf[:0], support, rank)
	}
	if f.NumVars() <= k {
		if depthBudget < 1 {
			return 0, false
		}
		tr.Nodes = append(tr.Nodes, TreeNode{Func: f.Clone(), Children: append([]int(nil), refs...)})
		return tr.NumInputs + len(tr.Nodes) - 1, true
	}
	if depthBudget < 2 {
		return 0, false
	}
	// Fast path for the associative shapes that dominate real cone
	// functions (wide AND/OR from control SOPs, parity from arithmetic):
	// build a balanced k-ary tree directly instead of searching bound sets.
	if root, ok := associativeTree(f, refs, k, depthBudget, tr); ok {
		return root, true
	}
	// Cheap tiers before the exponential bound-set search: disjoint literal
	// peeling, then a single-variable Shannon split (see tiers.go).
	if root, ok := disjointPeelTree(f, refs, rank, k, depthBudget, tr, es); ok {
		return root, true
	}
	if root, ok := shannonTree(f, refs, rank, k, depthBudget, tr, es); ok {
		return root, true
	}
	mark := len(tr.Nodes)
	var freshBuf [logic.MaxVars]bool // alphas created at this level
	fresh := freshBuf[:f.NumVars()]
	var g *logic.TT // the latest composition function, pool-owned
	for f.NumVars() > k {
		m := f.NumVars()
		// Encodable variables, ordered by priority.
		var orderBuf [logic.MaxVars]int
		ordered := orderBuf[:0]
		for v := 0; v < m; v++ {
			if !fresh[v] {
				ordered = append(ordered, v)
			}
		}
		slices.SortStableFunc(ordered, func(a, b int) int { return cmp.Compare(rank[a], rank[b]) })
		found := false
		// Window starts are capped: the priority sort already puts the
		// best bound-set candidates first, and an exhaustive slide makes
		// the search quadratic on undecomposable functions.
		const maxStarts = 6
	search:
		for size := min(k, len(ordered)); size >= 2; size-- {
			for start := 0; start+size <= len(ordered) && start < maxStarts; start++ {
				if !es.allow() {
					break search // candidate allowance spent; search degraded
				}
				bound := ordered[start : start+size]
				// The code must be narrower than the bound set, so every
				// extraction strictly reduces the input count.
				if !es.screen(f, bound, size-1) {
					continue
				}
				es.rothkarp++
				var freeBuf [logic.MaxVars]int
				var alphaBuf [logic.MaxVars]*logic.TT
				freeSet, alphas, rkG, ok := rothKarp(f, bound, size-1, pool, freeBuf[:0], alphaBuf[:0])
				if !ok {
					continue
				}
				// Alphas become depth-1 nodes; they inherit the rank of
				// their latest bound input.
				alphaRank := 0
				for _, v := range bound {
					alphaRank = max(alphaRank, rank[v])
				}
				var boundBuf, newRefBuf, newRankBuf [logic.MaxVars]int
				var newFreshBuf [logic.MaxVars]bool
				boundRefs := appendAt(boundBuf[:0], bound, refs)
				newRefs, newRank, newFresh := newRefBuf[:0], newRankBuf[:0], newFreshBuf[:0]
				for _, a := range alphas {
					var alphaSupBuf [logic.MaxVars]int
					sup := a.AppendSupport(alphaSupBuf[:0])
					tr.Nodes = append(tr.Nodes, TreeNode{
						Func:     projectTT(logic.NewTT(len(sup)), a, sup),
						Children: appendAt(nil, sup, boundRefs),
					})
					pool.Put(a)
					newRefs = append(newRefs, tr.NumInputs+len(tr.Nodes)-1)
					newRank = append(newRank, alphaRank)
					newFresh = append(newFresh, true)
				}
				for _, v := range freeSet {
					newRefs = append(newRefs, refs[v])
					newRank = append(newRank, rank[v])
					newFresh = append(newFresh, fresh[v])
				}
				pool.Put(g)
				g = rkG
				f = g
				refs = append(refBuf[:0], newRefs...)
				rank = append(rankBuf[:0], newRank...)
				fresh = append(freshBuf[:0], newFresh...)
				found = true
				break search
			}
		}
		if !found {
			break
		}
	}
	if g == nil {
		return 0, false // no extraction progressed
	}
	// Next level: everything (alphas included) is an ordinary input now.
	root, ok := decomposeOver(f, refs, rank, k, depthBudget-1, tr, es)
	pool.Put(g)
	if !ok {
		tr.Nodes = tr.Nodes[:mark]
		return 0, false
	}
	return root, true
}

// projectTT writes f shrunk to the given variables (f must not depend on
// others) into dst, a table of len(vars) variables, and returns dst.
func projectTT(dst, f *logic.TT, vars []int) *logic.TT {
	dst.SetConst(false)
	for i := 0; i < dst.NumBits(); i++ {
		var x uint
		for j, v := range vars {
			if i&(1<<uint(j)) != 0 {
				x |= 1 << uint(v)
			}
		}
		if f.Eval(x) {
			dst.SetBit(i, true)
		}
	}
	return dst
}

// appendAt appends xs[v] for each v in vars to dst.
func appendAt(dst, vars, xs []int) []int {
	for _, v := range vars {
		dst = append(dst, xs[v])
	}
	return dst
}
