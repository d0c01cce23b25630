// Package obs is the synthesis engine's observability layer: the Stats
// counter record with its CounterTable, a run-scoped span/event recorder
// (exported as Chrome/Perfetto trace JSON), pprof phase labels, a
// rate-limited progress tracker delivering periodic counter snapshots, and a
// live-metrics surface (expvar + Prometheus text) built from those
// snapshots.
//
// Overhead contract (see DESIGN.md §8): every engine hook is gated on a
// single pointer check — a nil *Recorder (or a nil per-worker *Ring) means
// the hook is one predictable branch and nothing else, preserving the label
// hot path's zero-allocation invariant. When recording is enabled, events go
// into fixed-capacity per-worker ring buffers owned by exactly one goroutine
// each, so the hot path takes no locks and performs no allocation either:
// enabling tracing adds one monotonic clock read, one slot write and one
// uncontended atomic counter bump per event. Ring creation (cold, once per
// worker) is the only allocating and locking operation. When a ring fills, the oldest events are overwritten —
// the trace keeps the tail of each worker's activity and reports how much
// was dropped.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies what a recorded event describes: an engine stage (span), a
// task-level span (component, probe, map), or a point event (cache traffic,
// degradations, cancellation).
type Op uint8

// Recorded operations. The first five are the pprof phase labels (see
// Phase); the engine switches between them inside the label kernel.
const (
	// OpLabel is the sweep bookkeeping between instrumented stages. Phase
	// switches to OpLabel close the current stage span without opening a new
	// one: label time is the trace's idle baseline, not an event.
	OpLabel Op = iota
	// OpExpand is E_v construction (expansion build or in-place re-mark).
	OpExpand
	// OpFlow is the max-flow K-cut / min-cut computation.
	OpFlow
	// OpDecompose is a Roth-Karp resynthesis attempt (span arg A = node,
	// B = bound-set candidates examined).
	OpDecompose
	// OpPLD is a predecessor-graph positive-loop-detection walk.
	OpPLD
	// OpComp is one SCC component task (span arg A = component id, B = label
	// iterations it ran).
	OpComp
	// OpProbe is one feasibility probe (span arg A = phi, B = 1 feasible /
	// 0 infeasible / -1 aborted).
	OpProbe
	// OpMap is the final mapping pass at the minimized phi (arg A = phi).
	OpMap
	// OpCacheHit / OpCacheMiss are decomposition-cache lookups (arg A = node).
	OpCacheHit
	OpCacheMiss
	// OpDegrade is a budget exhaustion absorbed by graceful degradation
	// (arg A = node, -1 for arenas).
	OpDegrade
	// OpCancel is a cancellation/abort observed by a worker (arg A =
	// component id, -1 outside component context).
	OpCancel
	// OpCacheLoad / OpCacheFlush are persisted decomposition-cache log
	// transfers at engine start / shutdown (arg A = entries moved, B = -1
	// when the transfer failed).
	OpCacheLoad
	OpCacheFlush

	// Daemon ops: the serving layer (internal/server) records these into a
	// per-job ring sharing the recorder — and therefore the clock — of the
	// engine run, so one trace shows admission, queueing and synthesis on a
	// single timeline.

	// OpAdmit is the admission decision span, from request arrival to the
	// 202/reject (arg A = 1 accepted / 0 rejected).
	OpAdmit
	// OpQueueWait is the span a job spent in the tenant-fair queue, closed
	// when a worker dequeues it (A = -1) or when drain sheds it (A = 0).
	OpQueueWait
	// OpJournal is one journal append (arg A = 0 accepted-record,
	// 1 terminal-record; B = -1 when the append failed).
	OpJournal
	// OpDispatch is the worker's job execution span, wrapping the engine run
	// (arg A = 1 done / 0 failed).
	OpDispatch
	// OpShed is the instant a job was shed without running (drain, failed
	// recovery, queue rejection after acceptance).
	OpShed

	// NumOps bounds the enum; keep it last.
	NumOps
)

var opNames = [NumOps]string{
	"label", "expand", "flow", "decompose", "pld",
	"component", "probe", "map", "cache-hit", "cache-miss",
	"degradation", "cancel", "cache-load", "cache-flush",
	"admission", "queue-wait", "journal", "dispatch", "shed",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// instant flags Event.Kind for point events.
const (
	kindSpan uint8 = iota
	kindInstant
)

// Event is one recorded ring entry: a completed span (Begin < End) or an
// instant (Begin == End). A and B are op-specific arguments (node ids,
// component ids, phi values); -1 means not applicable.
type Event struct {
	Op    Op
	Kind  uint8
	Begin int64 // ns since the recorder's epoch
	End   int64
	A, B  int64
}

// Recorder collects events for one synthesis run. Create one with
// NewRecorder, hand it to the engine (core.Options.Trace), and write the
// trace with WriteTrace after the run returns — on every path, including
// *CancelError / *InternalError aborts: the engine joins all workers before
// returning, so the rings are quiescent and complete.
type Recorder struct {
	epoch   time.Time
	ringCap int

	mu    sync.Mutex
	rings []*Ring
}

// DefaultRingCap is the per-ring event capacity when NewRecorder is given 0.
// At 48 bytes per event a default ring retains ~192 KiB and keeps the last
// ~4k events of its worker; raise it for long runs where full stage-level
// detail matters more than memory.
const DefaultRingCap = 4096

// NewRecorder returns a recorder whose clock starts now. ringCap is the
// per-worker ring capacity in events (0 = DefaultRingCap).
func NewRecorder(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{epoch: time.Now(), ringCap: ringCap}
}

// Now returns nanoseconds since the recorder's epoch: the common clock every
// span and snapshot of one run is expressed in.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// NewRing registers a new event ring named label (shown as the thread name
// in the exported trace). Cold path: it allocates and takes the recorder
// lock. The returned ring must only ever be used by one goroutine at a time;
// the engine hands one to each pool worker, probe and search loop.
func (r *Recorder) NewRing(label string) *Ring {
	ring := &Ring{rec: r, label: label, buf: make([]Event, r.ringCap)}
	r.mu.Lock()
	ring.tid = len(r.rings) + 1 // tid 0 is reserved for process metadata
	r.rings = append(r.rings, ring)
	r.mu.Unlock()
	return ring
}

// Totals reports how many events were recorded across all rings and how
// many of them were overwritten by ring wrap-around (dropped from the
// trace). Safe to call while ring owners are still appending — the counts
// are atomic and monotone, so a mid-run read (a progress snapshot's) is at
// worst slightly stale. The event *contents* (Events, WriteTrace) still
// require quiescent rings. A nil recorder reports zeros.
func (r *Recorder) Totals() (events, dropped int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ring := range r.rings {
		n := int(ring.n.Load())
		events += n
		if n > len(ring.buf) {
			dropped += n - len(ring.buf)
		}
	}
	return events, dropped
}

// Ring is a fixed-capacity event buffer owned by one goroutine. All methods
// are lock-free and allocation-free; when the buffer is full new events
// overwrite the oldest ones.
type Ring struct {
	rec   *Recorder
	tid   int
	label string
	buf   []Event
	// n counts events ever appended; n % len(buf) is the write slot. Atomic
	// only so Totals can read it mid-run (single writer, uncontended add).
	n atomic.Uint64

	// Open stage-span state for Phase: the current op, its argument and
	// when it started.
	phaseOp    Op
	phaseStart int64
	phaseA     int64
	phaseOpen  bool
}

// Now returns the owning recorder's clock (ns since epoch).
func (r *Ring) Now() int64 { return r.rec.Now() }

func (r *Ring) append(ev Event) {
	r.buf[r.n.Load()%uint64(len(r.buf))] = ev
	r.n.Add(1)
}

// Phase switches the ring's current engine stage, closing the span of the
// previous stage (if any). Switching to OpLabel closes the current span and
// opens nothing: bookkeeping time between stages is the trace's baseline.
// a is the op-specific argument of the stage being entered (typically the
// node id being decided).
func (r *Ring) Phase(op Op, a int64) {
	if r.phaseOpen && r.phaseOp == op {
		return
	}
	now := r.rec.Now()
	if r.phaseOpen {
		r.append(Event{Op: r.phaseOp, Kind: kindSpan, Begin: r.phaseStart, End: now, A: r.phaseA, B: -1})
		r.phaseOpen = false
	}
	if op != OpLabel {
		r.phaseOp, r.phaseStart, r.phaseA, r.phaseOpen = op, now, a, true
	}
}

// pprofLabels switches Phase's pprof goroutine labelling. With it on, CPU
// profiles break down by the "phase" label — expand (E_v construction),
// flow (K-cut max-flow), decompose (Roth–Karp resynthesis), pld (positive
// loop detection) and label (everything else in the sweep) — so
// `go tool pprof -tagfocus phase=flow` isolates one stage.
var pprofLabels atomic.Bool

// phaseCtx holds one pre-built label context per Op, so labelling
// allocates nothing; ops beyond the stages share the "label" context.
var phaseCtx [NumOps]context.Context

func init() {
	for op := range phaseCtx {
		name := OpLabel.String()
		if Op(op) <= OpPLD {
			name = Op(op).String()
		}
		phaseCtx[op] = pprof.WithLabels(context.Background(), pprof.Labels("phase", name))
	}
}

// EnablePprofLabels turns Phase's pprof labelling on or off (cmd/turbosyn
// turns it on with -cpuprofile).
func EnablePprofLabels(on bool) { pprofLabels.Store(on) }

// Phase switches the calling worker's engine stage on both observability
// planes: its pprof goroutine label when labelling is on, and ring's stage
// span (see Ring.Phase) when ring is non-nil. With both off it inlines to
// two predictable branches and allocates nothing.
func Phase(ring *Ring, op Op, a int64) {
	if pprofLabels.Load() || ring != nil {
		phaseOn(ring, op, a)
	}
}

func phaseOn(ring *Ring, op Op, a int64) {
	if pprofLabels.Load() {
		pprof.SetGoroutineLabels(phaseCtx[op])
	}
	if ring != nil {
		ring.Phase(op, a)
	}
}

// ClosePhase closes any open stage span (end of a component task, or an
// abort unwinding through the worker).
func (r *Ring) ClosePhase() { r.Phase(OpLabel, -1) }

// Span records a completed span that began at begin (a value previously
// read from Now) and ends now.
func (r *Ring) Span(op Op, begin int64, a, b int64) {
	r.append(Event{Op: op, Kind: kindSpan, Begin: begin, End: r.rec.Now(), A: a, B: b})
}

// Instant records a point event.
func (r *Ring) Instant(op Op, a, b int64) {
	now := r.rec.Now()
	r.append(Event{Op: op, Kind: kindInstant, Begin: now, End: now, A: a, B: b})
}

// Events returns the ring's retained events in append order (oldest first).
// Allocates; call it only after the run, never from the owning worker's hot
// path.
func (r *Ring) Events() []Event {
	n, capN := r.n.Load(), uint64(len(r.buf))
	if n <= capN {
		out := make([]Event, n)
		copy(out, r.buf[:n])
		return out
	}
	out := make([]Event, capN)
	start := n % capN
	copy(out, r.buf[start:])
	copy(out[capN-start:], r.buf[:start])
	return out
}

// NewRunID returns a fresh 12-hex-character run identifier, used to
// correlate log lines, progress snapshots and metrics of one synthesis run.
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness is best-effort bookkeeping, not
		// a correctness requirement.
		return fmt.Sprintf("t%011x", time.Now().UnixNano()&0xffffffffff)
	}
	return hex.EncodeToString(b[:])
}
