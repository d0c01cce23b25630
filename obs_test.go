package turbosyn

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"turbosyn/internal/bench"
)

// obsCircuit regenerates the suite's bbara FSM (fixed seed, deterministic):
// big enough that a default TurboSYN run exercises probes, SCC component
// tasks and Roth-Karp decompositions — everything the trace must show.
func obsCircuit() *Circuit {
	rng := rand.New(rand.NewSource(101))
	return bench.FSM(rng, "bbara", bench.FSMSpec{
		StateBits: 4, Inputs: 4, Outputs: 2, Cubes: 6, Span: 5,
	})
}

// chromeTrace mirrors the Chrome trace event schema `-trace` commits to
// (DESIGN.md §8) deeply enough to validate an exported file.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		Tool          string `json:"tool"`
		RunID         string `json:"runID"`
		Events        int    `json:"events"`
		DroppedEvents int    `json:"droppedEvents"`
	} `json:"otherData"`
}

// TestTraceSchemaAndSpans: a traced run exports valid Chrome trace JSON
// whose events include probe, component and decomposition spans.
func TestTraceSchemaAndSpans(t *testing.T) {
	rec := NewTraceRecorder(0)
	res, err := Synthesize(obsCircuit(), Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunID == "" {
		t.Fatal("traced run has no RunID")
	}
	if res.Stats.TraceEvents == 0 {
		t.Fatal("Stats.TraceEvents = 0 on a traced run")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, res.RunID); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.OtherData.Tool != "turbosyn" || tr.OtherData.RunID != res.RunID {
		t.Errorf("otherData = %+v, want tool turbosyn and run %s", tr.OtherData, res.RunID)
	}
	spans := map[string]int{}
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
		case "X":
			if ev.Dur == nil {
				t.Fatalf("event %d (%s): complete span without dur", i, ev.Name)
			}
			fallthrough
		case "i":
			if ev.TS < 0 || ev.PID == 0 || ev.TID == 0 {
				t.Fatalf("event %d (%s): bad ts/pid/tid", i, ev.Name)
			}
			if ev.Ph == "X" {
				spans[ev.Name]++
			}
		default:
			t.Fatalf("event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	for _, want := range []string{"probe", "component", "decompose", "map"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q spans (spans: %v)", want, spans)
		}
	}
}

// TestObservabilityBitIdentical: enabling every observability sink must not
// change the synthesis result — same phi, same LUT count, byte-identical
// realized BLIF.
func TestObservabilityBitIdentical(t *testing.T) {
	run := func(opts Options) (*Result, []byte) {
		t.Helper()
		res, err := Synthesize(obsCircuit(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, res.Realized); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	plain, plainBLIF := run(Options{})
	observed, obsBLIF := run(Options{
		Trace:            NewTraceRecorder(0),
		Progress:         func(ProgressSnapshot) {},
		ProgressInterval: time.Millisecond,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if plain.Phi != observed.Phi || plain.LUTs != observed.LUTs {
		t.Fatalf("observability changed the result: phi %d->%d, luts %d->%d",
			plain.Phi, observed.Phi, plain.LUTs, observed.LUTs)
	}
	if !bytes.Equal(plainBLIF, obsBLIF) {
		t.Fatal("realized BLIF differs with observability enabled")
	}
}

// TestProgressFinalStatsMatchResult: the live view and Result.Stats are the
// same counters, so at Workers=1 — where every probe is on the canonical
// search path — the final Done snapshot carries exactly Result.Stats, trace
// totals included.
func TestProgressFinalStatsMatchResult(t *testing.T) {
	var final ProgressSnapshot
	res, err := Synthesize(obsCircuit(), Options{
		Workers:  1,
		Trace:    NewTraceRecorder(0),
		Progress: func(s ProgressSnapshot) { final = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done {
		t.Fatal("last snapshot is not the Done one")
	}
	if final.Stats != res.Stats {
		t.Fatalf("final snapshot Stats\n%+v\nResult.Stats\n%+v", final.Stats, res.Stats)
	}
	if res.Stats.Iterations == 0 || res.Stats.TraceEvents == 0 {
		t.Fatalf("counters empty: %+v", res.Stats)
	}
}

// TestProgressFinalSnapshot: the snapshot stream ends with exactly one Done
// snapshot — delivered before Synthesize returns — carrying the run's final
// phi and work counters; an aborted run's Done snapshot carries the reason.
func TestProgressFinalSnapshot(t *testing.T) {
	collect := func() (func(ProgressSnapshot), func() []ProgressSnapshot) {
		var mu sync.Mutex
		var snaps []ProgressSnapshot
		sink := func(s ProgressSnapshot) { mu.Lock(); snaps = append(snaps, s); mu.Unlock() }
		get := func() []ProgressSnapshot { mu.Lock(); defer mu.Unlock(); return snaps }
		return sink, get
	}

	sink, get := collect()
	res, err := Synthesize(obsCircuit(), Options{
		Progress:         sink,
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := get()
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	var done int
	phases := map[string]bool{}
	for _, s := range snaps {
		if s.Done {
			done++
		}
		phases[s.Phase] = true
		if s.RunID != res.RunID {
			t.Fatalf("snapshot run id %q, want %q", s.RunID, res.RunID)
		}
	}
	if done != 1 || !snaps[len(snaps)-1].Done {
		t.Fatalf("want exactly one final Done snapshot, got %d (last done=%v)",
			done, snaps[len(snaps)-1].Done)
	}
	final := snaps[len(snaps)-1]
	if final.Err != "" {
		t.Fatalf("successful run's final snapshot has Err %q", final.Err)
	}
	if final.BestPhi != res.Phi {
		t.Errorf("final BestPhi = %d, result phi %d", final.BestPhi, res.Phi)
	}
	if final.Iterations == 0 || final.ProbesLaunched == 0 {
		t.Errorf("final counters empty: %+v", final.Stats)
	}
	for _, want := range []string{"search", "map", "pack", "realize"} {
		if !phases[want] {
			t.Errorf("phase %q never reported (saw %v)", want, phases)
		}
	}

	// Abort path: an already-cancelled context still delivers the final Done
	// snapshot, with the abort reason.
	sink, get = collect()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SynthesizeContext(ctx, obsCircuit(), Options{Progress: sink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	snaps = get()
	if len(snaps) == 0 || !snaps[len(snaps)-1].Done {
		t.Fatal("aborted run delivered no final Done snapshot")
	}
	if last := snaps[len(snaps)-1]; last.Err == "" || !strings.Contains(last.Err, "cancel") {
		t.Fatalf("aborted run's final snapshot Err = %q", last.Err)
	}
}

// lockedBuffer serializes writes: the engine logs from the reporter and
// search goroutines concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestLoggerRunFields: every structured log line of a run carries the run id
// and circuit name, and a debug-level run logs per-probe verdicts.
func TestLoggerRunFields(t *testing.T) {
	var out lockedBuffer
	res, err := Synthesize(obsCircuit(), Options{
		Logger: slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["run"] != res.RunID {
			t.Fatalf("log line run = %v, want %s: %s", rec["run"], res.RunID, line)
		}
		if rec["circuit"] != "bbara" {
			t.Fatalf("log line circuit = %v: %s", rec["circuit"], line)
		}
		msgs = append(msgs, rec["msg"].(string))
	}
	joined := strings.Join(msgs, "|")
	for _, want := range []string{"synthesis start", "probe", "synthesis done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no %q log line (messages: %s)", want, joined)
		}
	}
}
