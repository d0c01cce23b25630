package logic

// TTPool is a single-owner freelist of truth tables, bucketed by variable
// count. The cone-function evaluation of the label engine builds and drops
// thousands of transient tables per probe (Shannon cofactors, composition
// intermediates); recycling them through a per-worker pool turns that churn
// into pointer pops. A nil *TTPool is valid everywhere and degrades to plain
// allocation, so pooled and unpooled callers share one code path.
//
// Get returns a table with UNSPECIFIED contents — callers must fully
// overwrite it (CopyFrom, SetVar, SetConst, Not, And, Or all do). Put hands
// a table back; the caller must not retain any reference to it afterwards.
// The pool is not safe for concurrent use: like the rest of a worker arena,
// it has exactly one owning goroutine at a time.
type TTPool struct {
	free [MaxVars + 1][]*TT
}

// Get returns a table of nvar variables with unspecified contents, reusing a
// pooled table when one is available.
func (p *TTPool) Get(nvar int) *TT {
	if p != nil {
		if l := p.free[nvar]; len(l) > 0 {
			t := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[nvar] = l[:len(l)-1]
			return t
		}
	}
	return NewTT(nvar)
}

// Put returns t to the pool. nil is ignored; a nil pool drops the table for
// the garbage collector.
func (p *TTPool) Put(t *TT) {
	if p == nil || t == nil {
		return
	}
	p.free[t.nvar] = append(p.free[t.nvar], t)
}

// Bytes reports the approximate retained footprint of the pooled tables.
func (p *TTPool) Bytes() int {
	if p == nil {
		return 0
	}
	n := 0
	for nvar, l := range p.free {
		n += len(l) * (8*wordsFor(nvar) + 32)
	}
	return n
}

// CopyFrom sets t to the same function as o (which must have the same
// variable count) and returns t.
func (t *TT) CopyFrom(o *TT) *TT {
	t.checkSame(o)
	copy(t.words, o.words)
	return t
}

// SetVar sets t to the projection function x_i and returns t (the in-place
// form of Var, for pooled tables).
func (t *TT) SetVar(i int) *TT {
	if i < 0 || i >= t.nvar {
		panic("logic: SetVar: index out of range")
	}
	if i < 6 {
		for w := range t.words {
			t.words[w] = varMask64[i]
		}
		if t.nvar < 6 {
			t.words[0] &= mask(t.nvar)
		}
	} else {
		block := 1 << (i - 6)
		for w := range t.words {
			if (w/block)%2 == 1 {
				t.words[w] = ^uint64(0)
			} else {
				t.words[w] = 0
			}
		}
	}
	return t
}

// SetConst sets t to the constant function with the given value and returns
// t (the in-place form of Const, for pooled tables).
func (t *TT) SetConst(value bool) *TT {
	if !value {
		for i := range t.words {
			t.words[i] = 0
		}
		return t
	}
	for i := range t.words {
		t.words[i] = ^uint64(0)
	}
	t.words[len(t.words)-1] &= mask(t.nvar)
	if t.nvar < 6 {
		t.words[0] = mask(t.nvar)
	}
	return t
}
