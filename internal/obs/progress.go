package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is one progress report: where the run is (phase, best phi so
// far), how long it has been going, and the live work counters. The final
// snapshot of a run has Done == true and, when the run aborted, Err set to
// the abort reason; it is delivered on every exit path, including
// *CancelError / *InternalError aborts — which is what lets callers (the
// CLI's SIGINT/-timeout report, the metrics endpoint) treat the snapshot
// stream as the single source of truth for partial progress.
type Snapshot struct {
	RunID   string
	Phase   string // "init", "turbomap-ub", "search", "map", "pack", "realize", "flowsyns"
	Elapsed time.Duration
	BestPhi int // smallest feasible phi proven so far, -1 when none
	Done    bool
	Err     string // abort reason when Done and the run failed, else ""
	Stats          // the live counters (see Live)
}

// Progress drives a rate-limited snapshot stream: a ticker goroutine
// samples the engine's counters every interval and invokes the callback;
// Finish stops the ticker, joins it, and delivers the final Done snapshot
// exactly once. All methods are safe for concurrent use and safe on a nil
// receiver (a nil *Progress is the disabled tracker), so engine call sites
// need no guards.
type Progress struct {
	fn       func(Snapshot)
	interval time.Duration
	runID    string
	start    time.Time

	phase   atomic.Pointer[string]
	bestPhi atomic.Int64
	live    atomic.Pointer[Live]

	deliver  sync.Mutex // serializes callback invocations
	stop     chan struct{}
	loopDone chan struct{}
	started  bool
	finished atomic.Bool
}

// DefaultInterval is the snapshot cadence when NewProgress is given 0.
const DefaultInterval = 500 * time.Millisecond

// NewProgress returns a tracker delivering snapshots to fn every interval
// (0 = DefaultInterval). The clock starts now.
func NewProgress(runID string, interval time.Duration, fn func(Snapshot)) *Progress {
	if interval <= 0 {
		interval = DefaultInterval
	}
	p := &Progress{
		fn:       fn,
		interval: interval,
		runID:    runID,
		start:    time.Now(),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	init := "init"
	p.phase.Store(&init)
	p.bestPhi.Store(-1)
	return p
}

// SetPhase records the pipeline phase the run is in and delivers an
// immediate snapshot (phase transitions are rare and worth seeing promptly).
func (p *Progress) SetPhase(phase string) {
	if p == nil || p.finished.Load() {
		return
	}
	p.phase.Store(&phase)
	p.emit(p.snapshot())
}

// SetBestPhi records the smallest feasible phi proven so far.
func (p *Progress) SetBestPhi(phi int) {
	if p == nil {
		return
	}
	p.bestPhi.Store(int64(phi))
}

// Track starts a fresh live Stats for one engine call, whose trace totals
// come from rec (nil when not tracing), and returns it for the engine to
// publish into; snapshots read it from then on. A nil tracker returns nil.
func (p *Progress) Track(rec *Recorder) *Live {
	if p == nil {
		return nil
	}
	l := &Live{rec: rec}
	p.live.Store(l)
	return l
}

// Start launches the ticker goroutine. Finish must be called to join it.
func (p *Progress) Start() {
	if p == nil || p.started {
		return
	}
	p.started = true
	go func() {
		defer close(p.loopDone)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if !p.finished.Load() {
					p.emit(p.snapshot())
				}
			case <-p.stop:
				return
			}
		}
	}()
}

// Finish stops and joins the ticker goroutine and delivers the final
// snapshot (Done = true, Err = errMsg) exactly once, even when called
// multiple times or without Start. It returns the final snapshot.
func (p *Progress) Finish(errMsg string) Snapshot {
	if p == nil {
		return Snapshot{}
	}
	if !p.finished.CompareAndSwap(false, true) {
		return p.snapshotDone(errMsg)
	}
	if p.started {
		close(p.stop)
		<-p.loopDone
	}
	s := p.snapshotDone(errMsg)
	p.emit(s)
	return s
}

func (p *Progress) snapshotDone(errMsg string) Snapshot {
	s := p.snapshot()
	s.Done = true
	s.Err = errMsg
	return s
}

func (p *Progress) snapshot() Snapshot {
	s := Snapshot{
		RunID:   p.runID,
		Elapsed: time.Since(p.start),
		BestPhi: int(p.bestPhi.Load()),
	}
	if ph := p.phase.Load(); ph != nil {
		s.Phase = *ph
	}
	if l := p.live.Load(); l != nil {
		s.Stats = l.Load()
	}
	return s
}

func (p *Progress) emit(s Snapshot) {
	if p.fn == nil {
		return
	}
	p.deliver.Lock()
	defer p.deliver.Unlock()
	p.fn(s)
}
