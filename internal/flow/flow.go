// Package flow implements the small max-flow engine behind all K-feasible
// cut computations: unit/infinite arc capacities, breadth-first augmenting
// paths (Edmonds–Karp) with an early exit once the flow exceeds the cut
// budget K, and residual reachability for min-cut extraction.
//
// Vertex capacities (the node cut-sets of FlowMap/TurboMap) are modelled by
// the callers via node splitting.
//
// A Net is resettable: Reset reuses the arc pool, adjacency lists and BFS
// scratch of earlier builds, so callers sitting in a hot loop (the label
// computation checks one cut per node per sweep) construct and solve
// networks with zero heap allocation once the backing arrays have grown to
// the workload's high-water mark.
package flow

// Inf is the capacity of an uncuttable arc.
const Inf = int(1) << 30

// arc is one directed arc. Arcs of a node form a singly linked list through
// next, threaded in insertion order (first/last in Net) so traversal order —
// and therefore BFS tie-breaking — is identical to an adjacency-slice
// implementation.
type arc struct {
	to   int32
	next int32 // next arc of the same tail node, -1 at the end
	cap  int
}

// Net is a flow network over dense integer nodes.
type Net struct {
	arcs  []arc
	first []int32 // head of each node's arc list, -1 when empty
	last  []int32 // tail of each node's arc list (insertion order)

	// BFS/augmentation scratch, reused across MaxFlowUpTo calls.
	prevArc []int32
	queue   []int32
	// Residual-reachability scratch, reused across ResidualReach calls.
	reach []bool
}

// NewNet returns a network with n nodes and no arcs.
func NewNet(n int) *Net {
	net := &Net{}
	net.Reset(n)
	return net
}

// Reset reinitializes the network to n nodes and no arcs, retaining every
// backing array. After the first few builds at a given size, Reset and the
// subsequent AddArc/MaxFlowUpTo/ResidualReach cycle allocate nothing.
func (n *Net) Reset(num int) {
	n.arcs = n.arcs[:0]
	if cap(n.first) < num {
		n.first = make([]int32, num)
		n.last = make([]int32, num)
	}
	n.first = n.first[:num]
	n.last = n.last[:num]
	for i := range n.first {
		n.first[i] = -1
		n.last[i] = -1
	}
}

// NumNodes returns the node count.
func (n *Net) NumNodes() int { return len(n.first) }

// addHalf appends one directed arc u->v and links it at the tail of u's arc
// list, preserving insertion order under traversal.
func (n *Net) addHalf(u, v, capacity int) {
	id := int32(len(n.arcs))
	n.arcs = append(n.arcs, arc{to: int32(v), next: -1, cap: capacity})
	if n.last[u] < 0 {
		n.first[u] = id
	} else {
		n.arcs[n.last[u]].next = id
	}
	n.last[u] = id
}

// AddArc adds a directed arc u->v with the given capacity (its residual
// reverse arc is created automatically).
func (n *Net) AddArc(u, v, cap int) {
	n.addHalf(u, v, cap)
	n.addHalf(v, u, 0)
}

// MaxFlowUpTo pushes unit augmenting paths from s to t until either no path
// remains (the returned flow is the max flow) or the flow exceeds limit (the
// return value is limit+1 and the computation stops early; the residual
// state is still consistent).
func (n *Net) MaxFlowUpTo(s, t, limit int) int {
	flow := 0
	if cap(n.prevArc) < len(n.first) {
		n.prevArc = make([]int32, len(n.first))
		n.queue = make([]int32, 0, len(n.first))
	}
	prevArc := n.prevArc[:len(n.first)]
	for flow <= limit {
		// BFS for a shortest augmenting path.
		for i := range prevArc {
			prevArc[i] = -1
		}
		queue := n.queue[:0]
		queue = append(queue, int32(s))
		prevArc[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
				a := &n.arcs[ai]
				if a.cap <= 0 || prevArc[a.to] != -1 {
					continue
				}
				prevArc[a.to] = ai
				if int(a.to) == t {
					found = true
					break bfs
				}
				queue = append(queue, a.to)
			}
		}
		n.queue = queue[:0]
		if !found {
			return flow
		}
		// Augment by the path bottleneck (arcs are unit or Inf; bottleneck
		// is still computed generally).
		bottleneck := Inf
		for v := t; v != s; {
			ai := prevArc[v]
			if n.arcs[ai].cap < bottleneck {
				bottleneck = n.arcs[ai].cap
			}
			v = int(n.arcs[ai^1].to)
		}
		for v := t; v != s; {
			ai := prevArc[v]
			n.arcs[ai].cap -= bottleneck
			n.arcs[ai^1].cap += bottleneck
			v = int(n.arcs[ai^1].to)
		}
		flow += bottleneck
	}
	return limit + 1 // an all-Inf path adds Inf, not 1
}

// Bytes reports the approximate footprint of the network's retained arrays,
// for arena high-water accounting.
func (n *Net) Bytes() int {
	const arcSize = 16 // arc: two int32 + one int
	return cap(n.arcs)*arcSize +
		(cap(n.first)+cap(n.last)+cap(n.prevArc)+cap(n.queue))*4 +
		cap(n.reach)
}

// ResidualReach returns the set of nodes reachable from s in the residual
// network. After a completed MaxFlowUpTo (flow <= limit), the arcs crossing
// from the reachable to the unreachable side form a min cut.
//
// The returned slice is scratch owned by the Net: it stays valid until the
// next ResidualReach or Reset on the same network.
func (n *Net) ResidualReach(s int) []bool {
	if cap(n.reach) < len(n.first) {
		n.reach = make([]bool, len(n.first))
	}
	seen := n.reach[:len(n.first)]
	for i := range seen {
		seen[i] = false
	}
	seen[s] = true
	queue := n.queue[:0]
	queue = append(queue, int32(s))
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
			a := &n.arcs[ai]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	n.queue = queue[:0]
	return seen
}
