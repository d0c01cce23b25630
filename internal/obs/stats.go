package obs

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Stats counts the work a run performed. It is the one counter record of
// the engine: workers count into their own Stats, Add merges them, a
// progress tracker's Live view publishes them while the run is in flight,
// and /metrics and expvar export them. Every field has exactly one
// CounterTable entry naming its series and how it merges.
type Stats struct {
	Iterations     int // label-update passes (over SCC members)
	CutChecks      int // flow-based K-cut existence checks
	Decompositions int // successful sequential decompositions
	DecompAttempts int // attempted sequential decompositions
	PLDChecks      int // predecessor-graph reachability checks
	PLDHits        int // infeasibility detected by PLD

	// Arena effectiveness counters (see DESIGN.md).
	ExpandBuilds   int // expansions built from scratch
	ExpandReuses   int // expansions served by in-place Tighten/Loosen
	ArenaPeakBytes int // high-water footprint of the busiest scratch arena

	// Engine arena-pool effectiveness (zero on the throwaway path, where
	// states have no pool): how many worker arenas this run checked out, and
	// how many of those came warm from the pool instead of being created.
	ArenaCheckouts int
	ArenaPoolHits  int

	// BoundSetsExamined counts the candidate bound sets Roth-Karp window
	// scans actually examined (decomposition-cache hits replay none); the
	// per-attempt counts also annotate decompose spans in exported traces.
	BoundSetsExamined int

	// Decomposition-tier counters: how tryDecompose outcomes were produced.
	// RothKarpCalls counts full Roth-Karp window scans actually entered (the
	// expensive tier; cache hits and cheaper tiers contribute none — the
	// warm-cache CI gate pins its skip rate on this counter). ShannonSplits
	// and DisjointPeels count decompositions settled by the cheaper
	// cofactor-split and same-op-literal-peeling tiers.
	RothKarpCalls int
	ShannonSplits int
	DisjointPeels int

	// Degradations counts budget exhaustions absorbed by graceful
	// degradation: nodes whose resynthesis was skipped or truncated by
	// BDDNodeBudget/RothKarpBudget, and arenas released by ArenaByteBudget.
	// Always 0 when no budget is configured. Under Options.Strict the first
	// would-be degradation aborts the run with a *BudgetError instead.
	Degradations int

	// Scheduler, cache and search counters (see core.Options.Workers). With
	// Workers > 1 they cover the same probes as every other field: the
	// canonical search path and the map pass; ProbesLaunched and
	// ProbesCancelled count every probe, speculative lookaheads included.
	Workers            int // effective worker-pool size (1 = sequential)
	ParallelTasks      int // SCC tasks pulled from the dataflow ready queue
	InlineTasks        int // trivial components chained inline (TaskGrain batching)
	QueueDepthPeak     int // ready-queue depth high-water mark
	WorkerOccupancy    int // peak simultaneously busy pool workers
	CacheShardHits     int // sharded decomposition-cache hits
	CacheShardMisses   int // sharded decomposition-cache misses
	CachePersistedHits int // hits served by entries loaded from a CacheDir log
	CacheNPNHits       int // hits reached through a non-identity NPN transform
	ProbesLaunched     int // feasibility probes started by the search
	ProbesCancelled    int // speculative probes cancelled (lost branch)

	// Worklist convergence accounting (see DESIGN.md §11). SweepNodeVisits
	// counts the member visits label sweeps actually performed; DirtySkips
	// counts the visits the dirty-set worklist elided because no predecessor
	// label had changed since the member's last decision (always 0 under
	// Options.NoWorklist, where every sweep visits every member);
	// WorklistPeak is the largest number of members any single fast pass
	// drained — the worklist analogue of QueueDepthPeak.
	SweepNodeVisits int
	DirtySkips      int
	WorklistPeak    int

	// Trace-recorder accounting (zero when Options.Trace is nil).
	TraceEvents  int // events recorded across all per-worker rings
	TraceDropped int // events overwritten by ring wrap (lost from the trace)
}

// Merge says how two values of one counter combine.
type Merge uint8

const (
	// Sum adds the values: work done.
	Sum Merge = iota
	// Max keeps the larger value: pool sizes, peaks and high-water marks.
	Max
)

// Counter describes one Stats field.
type Counter struct {
	Field string // the Stats field
	Name  string // Prometheus series name
	Help  string
	Merge Merge
}

// CounterTable lists every Stats field exactly once, in declaration order.
// Stats.Add, Live and the /metrics and expvar series are loops over it.
var CounterTable = [...]Counter{
	{"Iterations", "turbosyn_iterations_total", "label-update passes over SCC members", Sum},
	{"CutChecks", "turbosyn_cut_checks_total", "flow-based K-cut existence checks", Sum},
	{"Decompositions", "turbosyn_decompositions_total", "successful sequential decompositions", Sum},
	{"DecompAttempts", "turbosyn_decomp_attempts_total", "attempted sequential decompositions", Sum},
	{"PLDChecks", "turbosyn_pld_checks_total", "predecessor-graph reachability checks", Sum},
	{"PLDHits", "turbosyn_pld_hits_total", "infeasibility detected by positive loop detection", Sum},
	{"ExpandBuilds", "turbosyn_expand_builds_total", "expansions built from scratch", Sum},
	{"ExpandReuses", "turbosyn_expand_reuses_total", "expansions served by in-place Tighten/Loosen", Sum},
	{"ArenaPeakBytes", "turbosyn_arena_peak_bytes", "busiest scratch arena footprint", Max},
	{"ArenaCheckouts", "turbosyn_arena_checkouts_total", "worker arenas checked out of the engine pool", Sum},
	{"ArenaPoolHits", "turbosyn_arena_pool_hits_total", "arena checkouts served warm from the pool", Sum},
	{"BoundSetsExamined", "turbosyn_bound_sets_examined_total", "bound sets examined by Roth-Karp window scans", Sum},
	{"RothKarpCalls", "turbosyn_rothkarp_calls_total", "Roth-Karp window scans entered", Sum},
	{"ShannonSplits", "turbosyn_shannon_splits_total", "decompositions settled by cofactor splitting", Sum},
	{"DisjointPeels", "turbosyn_disjoint_peels_total", "decompositions settled by same-op literal peeling", Sum},
	{"Degradations", "turbosyn_degradations_total", "budget exhaustions absorbed", Sum},
	{"Workers", "turbosyn_workers", "effective worker-pool size", Max},
	{"ParallelTasks", "turbosyn_parallel_tasks_total", "SCC tasks pulled from the dataflow ready queue", Sum},
	{"InlineTasks", "turbosyn_inline_tasks_total", "trivial components chained inline", Sum},
	{"QueueDepthPeak", "turbosyn_ready_queue_depth_peak", "ready-queue depth high-water mark", Max},
	{"WorkerOccupancy", "turbosyn_worker_occupancy_peak", "peak simultaneously busy pool workers", Max},
	{"CacheShardHits", "turbosyn_cache_hits_total", "decomposition-cache hits", Sum},
	{"CacheShardMisses", "turbosyn_cache_misses_total", "decomposition-cache misses", Sum},
	{"CachePersistedHits", "turbosyn_cache_persisted_hits_total", "decomposition-cache hits served from the persisted log", Sum},
	{"CacheNPNHits", "turbosyn_cache_npn_hits_total", "decomposition-cache hits through a non-identity NPN transform", Sum},
	{"ProbesLaunched", "turbosyn_probes_launched_total", "feasibility probes started", Sum},
	{"ProbesCancelled", "turbosyn_probes_cancelled_total", "speculative probes cancelled", Sum},
	{"SweepNodeVisits", "turbosyn_nodes_labeled_total", "member visits performed by label sweeps", Sum},
	{"DirtySkips", "turbosyn_nodes_skipped_total", "member visits elided by the dirty-set worklist", Sum},
	{"WorklistPeak", "turbosyn_worklist_depth_peak", "largest fast-pass worklist drain", Max},
	{"TraceEvents", "turbosyn_trace_events_total", "trace events recorded", Max},
	{"TraceDropped", "turbosyn_trace_dropped_total", "trace events lost to ring wrap", Max},
}

const numCounters = len(CounterTable)

// vals views s as its counters, indexed like CounterTable. Stats holds only
// int fields in CounterTable order; init checks the layout.
func (s *Stats) vals() *[numCounters]int { return (*[numCounters]int)(unsafe.Pointer(s)) }

func init() {
	t := reflect.TypeFor[Stats]()
	if t.NumField() != numCounters {
		panic(fmt.Sprintf("obs: Stats has %d fields, CounterTable %d entries", t.NumField(), numCounters))
	}
	for i, c := range CounterTable {
		f := t.Field(i)
		if f.Name != c.Field || f.Type.Kind() != reflect.Int || f.Offset != uintptr(i)*unsafe.Sizeof(0) {
			panic(fmt.Sprintf("obs: Stats field %d is %s %s, CounterTable entry %d is %s", i, f.Name, f.Type, i, c.Field))
		}
	}
}

// Add accumulates s2 into s, each counter by its Merge.
func (s *Stats) Add(s2 Stats) {
	a, b := s.vals(), s2.vals()
	for i, c := range CounterTable {
		if c.Merge == Sum {
			a[i] += b[i]
		} else if b[i] > a[i] {
			a[i] = b[i]
		}
	}
}

// Live is the run-wide Stats a progress tracker reads while the run is in
// flight. Workers count into their own Stats and Publish what they counted
// since their last publish, once per label sweep; Load may run concurrently
// with them and returns a monotone, slightly torn view. A nil *Live (no
// tracker attached) ignores Publish, so an untracked run does no shared
// writes.
type Live struct {
	vals [numCounters]atomic.Int64
	rec  *Recorder // source of the trace totals, nil when not tracing
}

// Publish adds what cur counted since base into l and sets base to cur.
// base must be what cur held at its previous Publish (zero before the
// first). On a nil l it inlines to one branch.
func (l *Live) Publish(cur, base *Stats) {
	if l != nil {
		l.publish(cur, base)
	}
}

func (l *Live) publish(cur, base *Stats) {
	c, b := cur.vals(), base.vals()
	for i, ct := range CounterTable {
		if c[i] == b[i] {
			continue
		}
		v := &l.vals[i]
		if ct.Merge == Sum {
			v.Add(int64(c[i] - b[i]))
			continue
		}
		for old := v.Load(); int64(c[i]) > old && !v.CompareAndSwap(old, int64(c[i])); old = v.Load() {
		}
	}
	*base = *cur
}

// Load reads the published counters and the recorder's trace totals.
func (l *Live) Load() Stats {
	var s Stats
	v := s.vals()
	for i := range v {
		v[i] = int(l.vals[i].Load())
	}
	s.TraceEvents, s.TraceDropped = l.rec.Totals()
	return s
}
