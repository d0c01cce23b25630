package core

import "turbosyn/internal/obs"

// phase switches the calling worker's stage on both observability planes
// (see obs.Phase); with both off it allocates nothing, preserving the warm
// structural sweep's zero-allocation invariant.
func phase(ar *arena, op obs.Op) { obs.Phase(ar.ring, op, int64(ar.curNode)) }

// attachRing gives a freshly created worker arena its trace ring. Cold path:
// called once per (probe, worker), never inside a sweep.
func (s *state) attachRing(ar *arena, label string) {
	if s.rec != nil && ar.ring == nil {
		ar.ring = s.rec.NewRing(label)
	}
}

// tally is one worker's counter accumulator: the Stats it counts into and
// the part of them already published to the run's live view.
type tally struct {
	Stats
	pub Stats
}

// publish pushes what t counted since its last publish into live. Without
// a progress tracker live is nil and publish does nothing.
func (t *tally) publish(live *obs.Live) { live.Publish(&t.Stats, &t.pub) }

// merge folds o into t: its counts and the part of them already published.
func (t *tally) merge(o *tally) {
	t.Stats.Add(o.Stats)
	t.pub.Add(o.pub)
}

// probeVerdict encodes a probe outcome as the OpProbe span argument.
func probeVerdict(ok bool, err error) int64 {
	switch {
	case err != nil:
		return -1
	case ok:
		return 1
	}
	return 0
}
