package decomp

import "turbosyn/internal/logic"

// assocShape recognizes f, a function of all its variables, as their wide
// AND, OR or XOR, or a complement of one: mk builds the uncomplemented
// gate, and mk is nil for any other function. AND and NOR have a single
// true minterm, OR and NAND a single false one, and that minterm's position
// (all-ones or all-zeros) tells which; no reference table is built.
func assocShape(f *logic.TT) (mk func(int) *logic.TT, invert bool) {
	ones, top := f.CountOnes(), f.NumBits()-1
	switch {
	case ones == 1 && f.Bit(top):
		return logic.AndAll, false
	case ones == top && !f.Bit(0):
		return logic.OrAll, false
	case ones == top && !f.Bit(top):
		return logic.AndAll, true
	case ones == 1 && f.Bit(0):
		return logic.OrAll, true
	}
	if _, inv, ok := f.IsParity(); ok {
		return logic.XorAll, inv
	}
	return nil, false
}

// associativeTree recognizes f (already support-normalized, more than k
// variables) as a wide AND, OR or XOR or a complement thereof, and builds a
// balanced k-ary tree for it directly. Complements fold into the root node.
// ok=false when f has no such shape or the tree cannot fit depthBudget.
func associativeTree(f *logic.TT, refs []int, k, depthBudget int, tr *Tree) (int, bool) {
	m := f.NumVars()
	mk, invert := assocShape(f)
	if mk == nil {
		return 0, false
	}
	// Depth of a balanced k-ary reduction over m leaves.
	depth := 0
	for span := 1; span < m; span *= k {
		depth++
	}
	if depth > depthBudget {
		return 0, false
	}
	var levelBuf, nextBuf [logic.MaxVars]int
	level := append(levelBuf[:0], refs...)
	for len(level) > 1 {
		next := nextBuf[:0]
		for i := 0; i < len(level); i += k {
			j := min(i+k, len(level))
			if j-i == 1 {
				next = append(next, level[i])
				continue
			}
			fn := mk(j - i)
			if invert && len(level) <= k {
				fn.Not(fn) // root node: fold the complement in
			}
			tr.Nodes = append(tr.Nodes, TreeNode{Func: fn, Children: append([]int(nil), level[i:j]...)})
			next = append(next, tr.NumInputs+len(tr.Nodes)-1)
		}
		level = append(level[:0], next...)
	}
	return level[0], true
}
