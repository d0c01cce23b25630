package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: turbosyn
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkColdProbes_bbara 	       1	 385343297 ns/op	      1840 iters	         11436 visits	251278808 B/op	  929836 allocs/op
BenchmarkScale1k/j1       	       2	54453132746 ns/op	      1036 gates	         4.000 phi	49631384784 B/op	449284798 allocs/op
--- BENCH: BenchmarkScale1k
    some test chatter
PASS
ok  	turbosyn	10.093s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Context["goos"] != "linux" || doc.Context["cpu"] == "" {
		t.Fatalf("context = %v", doc.Context)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	search := doc.Benchmarks[0]
	if search.Name != "BenchmarkColdProbes_bbara" || search.N != 1 {
		t.Fatalf("benchmark[0] = %+v", search)
	}
	for unit, want := range map[string]float64{
		"ns/op":     385343297,
		"iters":     1840,
		"visits":    11436,
		"B/op":      251278808,
		"allocs/op": 929836,
	} {
		if got := search.Metrics[unit]; got != want {
			t.Errorf("%s = %v, want %v", unit, got, want)
		}
	}
	if doc.Benchmarks[1].Name != "BenchmarkScale1k/j1" {
		t.Fatalf("benchmark[1] = %+v", doc.Benchmarks[1])
	}
	if doc.Benchmarks[1].Metrics["allocs/op"] != 449284798 {
		t.Errorf("scale allocs/op = %v", doc.Benchmarks[1].Metrics["allocs/op"])
	}
}

func bm(name string, ns, bytes float64) Benchmark {
	return Benchmark{Name: name, N: 1, Metrics: map[string]float64{"ns/op": ns, "B/op": bytes}}
}

func TestDeltaPairsAndRatios(t *testing.T) {
	oldDoc := &Doc{Benchmarks: []Benchmark{
		bm("A", 100, 1000),
		bm("Gone", 50, 10),
	}}
	newDoc := &Doc{Benchmarks: []Benchmark{
		bm("A", 150, 500),
		bm("Fresh", 70, 70),
	}}
	rows := Delta(oldDoc, newDoc)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	a := rows[0]
	if a.Name != "A" || a.TimeRatio != 1.5 || a.BytesRatio != 0.5 || a.OnlyIn != "" {
		t.Fatalf("row A = %+v", a)
	}
	if rows[1].Name != "Fresh" || rows[1].OnlyIn != "new" {
		t.Fatalf("row Fresh = %+v", rows[1])
	}
	if rows[2].Name != "Gone" || rows[2].OnlyIn != "old" {
		t.Fatalf("row Gone = %+v", rows[2])
	}
}

func TestDeltaMissingMetricIsNotGated(t *testing.T) {
	oldDoc := &Doc{Benchmarks: []Benchmark{
		{Name: "A", N: 1, Metrics: map[string]float64{"iters": 5}},
	}}
	newDoc := &Doc{Benchmarks: []Benchmark{
		{Name: "A", N: 1, Metrics: map[string]float64{"ns/op": 1e9, "iters": 9}},
	}}
	rows := Delta(oldDoc, newDoc)
	if rows[0].TimeRatio != 0 || rows[0].BytesRatio != 0 {
		t.Fatalf("missing metrics must give zero ratios, got %+v", rows[0])
	}
	var buf strings.Builder
	if n := FormatDelta(&buf, rows, Gates{MaxTime: 1.1, MaxBytes: 1.1, MaxAllocs: 1.1}, false); n != 0 {
		t.Fatalf("ungated row counted as regression:\n%s", buf.String())
	}
}

func bmAllocs(name string, allocs float64) Benchmark {
	return Benchmark{Name: name, N: 1, Metrics: map[string]float64{
		"ns/op": 100, "B/op": 100, "allocs/op": allocs,
	}}
}

func TestDeltaAllocsRatio(t *testing.T) {
	oldDoc := &Doc{Benchmarks: []Benchmark{
		bmAllocs("Grew", 100),
		bmAllocs("ZeroStillZero", 0),
		bmAllocs("ZeroNowAllocates", 0),
	}}
	newDoc := &Doc{Benchmarks: []Benchmark{
		bmAllocs("Grew", 200),
		bmAllocs("ZeroStillZero", 0),
		bmAllocs("ZeroNowAllocates", 1),
	}}
	rows := Delta(oldDoc, newDoc)
	if rows[0].AllocsRatio != 2.0 {
		t.Fatalf("Grew allocs ratio = %v, want 2", rows[0].AllocsRatio)
	}
	if rows[1].AllocsRatio != 1.0 {
		t.Fatalf("ZeroStillZero allocs ratio = %v, want 1", rows[1].AllocsRatio)
	}
	if !math.IsInf(rows[2].AllocsRatio, 1) {
		t.Fatalf("ZeroNowAllocates allocs ratio = %v, want +Inf", rows[2].AllocsRatio)
	}
	// At the default 1.5x both the doubling and the 0 -> 1 jump trip.
	var buf strings.Builder
	if n := FormatDelta(&buf, rows, Gates{MaxAllocs: 1.5}, false); n != 2 {
		t.Fatalf("allocs gate at 1.5x flagged %d rows, want 2:\n%s", n, buf.String())
	}
	// The 0 -> 1 jump must trip any positive threshold, however generous.
	if n := FormatDelta(&strings.Builder{}, rows, Gates{MaxAllocs: 1000}, false); n != 1 {
		t.Fatalf("allocs gate at 1000x flagged %d rows, want only the 0->1 jump", n)
	}
}

func bmLoad(name string, p99, retries float64) Benchmark {
	return Benchmark{Name: name, N: 1, Metrics: map[string]float64{
		"ns/op": 100, "p99-ms": p99, "retries": retries,
	}}
}

func TestDeltaP99AndRetriesRatios(t *testing.T) {
	oldDoc := &Doc{Benchmarks: []Benchmark{
		bmLoad("Load", 10, 0),
		bmLoad("Calm", 10, 4),
	}}
	newDoc := &Doc{Benchmarks: []Benchmark{
		bmLoad("Load", 80, 999),
		bmLoad("Calm", 10, 4),
	}}
	rows := Delta(oldDoc, newDoc)
	if rows[0].P99Ratio != 8.0 {
		t.Fatalf("p99 ratio = %v, want 8", rows[0].P99Ratio)
	}
	// Zero-retry baseline: the smoothed ratio (999+1)/(0+1) still trips.
	if rows[0].RetriesRatio != 1000 {
		t.Fatalf("retries ratio = %v, want 1000", rows[0].RetriesRatio)
	}
	if rows[1].P99Ratio != 1.0 || rows[1].RetriesRatio != 1.0 {
		t.Fatalf("steady row ratios = %+v, want 1.0/1.0", rows[1])
	}
	var buf strings.Builder
	if n := FormatDelta(&buf, rows, Gates{MaxP99: 5.0}, false); n != 1 {
		t.Fatalf("p99 gate flagged %d rows, want 1:\n%s", n, buf.String())
	}
	if n := FormatDelta(&strings.Builder{}, rows, Gates{MaxRetries: 10.0}, false); n != 1 {
		t.Fatalf("retries gate flagged %d rows, want 1", n)
	}
	// A benchmark without the load metrics (plain engine benchmarks) is
	// never gated on them.
	plain := Delta(
		&Doc{Benchmarks: []Benchmark{bm("A", 100, 100)}},
		&Doc{Benchmarks: []Benchmark{bm("A", 100, 100)}})
	if plain[0].P99Ratio != 0 || plain[0].RetriesRatio != 0 {
		t.Fatalf("metric-free row got load ratios: %+v", plain[0])
	}
	if n := FormatDelta(&strings.Builder{}, plain, Gates{MaxP99: 1.01, MaxRetries: 1.01}, false); n != 0 {
		t.Fatalf("load gates fired on a benchmark without load metrics")
	}
}

func TestFormatDeltaFlagsRegressions(t *testing.T) {
	rows := []DeltaRow{
		{Name: "Fast", TimeRatio: 0.8, BytesRatio: 1.0},
		{Name: "SlowTime", TimeRatio: 3.5, BytesRatio: 1.0},
		{Name: "FatBytes", TimeRatio: 1.0, BytesRatio: 2.0},
		{Name: "New", OnlyIn: "new"},
	}
	var buf strings.Builder
	n := FormatDelta(&buf, rows, Gates{MaxTime: 3.0, MaxBytes: 1.5, MaxAllocs: 1.5}, false)
	if n != 2 {
		t.Fatalf("regressions = %d, want 2:\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "SlowTime") || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("output lacks regression marks:\n%s", out)
	}
	if strings.Count(out, "REGRESSED") != 2 {
		t.Fatalf("want exactly 2 REGRESSED marks:\n%s", out)
	}
	if !strings.Contains(out, "only in new") {
		t.Fatalf("new-only benchmark not reported:\n%s", out)
	}
	// Disabled gates (0) must never fire.
	if n := FormatDelta(&strings.Builder{}, rows, Gates{}, false); n != 0 {
		t.Fatalf("disabled thresholds still flagged %d rows", n)
	}
}

func TestFormatDeltaRequireOld(t *testing.T) {
	rows := []DeltaRow{
		{Name: "Shared", TimeRatio: 1.0, BytesRatio: 1.0, AllocsRatio: 1.0},
		{Name: "Fresh", OnlyIn: "new"},
		{Name: "Gone", OnlyIn: "old"},
	}
	// Default: unshared names are informational.
	var buf strings.Builder
	if n := FormatDelta(&buf, rows, Gates{MaxTime: 3.0, MaxBytes: 1.5, MaxAllocs: 1.5}, false); n != 0 {
		t.Fatalf("informational new-only row counted as regression:\n%s", buf.String())
	}
	// -require-old: a new benchmark with no baseline is fatal; a removed
	// benchmark (old-only) stays informational.
	buf.Reset()
	if n := FormatDelta(&buf, rows, Gates{MaxTime: 3.0, MaxBytes: 1.5, MaxAllocs: 1.5}, true); n != 1 {
		t.Fatalf("require-old flagged %d rows, want 1:\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "Fresh") || !strings.Contains(out, "no baseline") {
		t.Fatalf("missing-baseline row not marked:\n%s", out)
	}
	if strings.Contains(out, "Gone") && strings.Contains(strings.Split(out, "Gone")[1], "REGRESSED") {
		t.Fatalf("old-only row must stay informational:\n%s", out)
	}
}
