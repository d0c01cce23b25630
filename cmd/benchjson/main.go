// Command benchjson converts `go test -bench` text output (read on stdin)
// into a stable JSON document, so CI can publish benchmark numbers — ns/op,
// B/op, allocs/op and any custom b.ReportMetric units such as iters or
// visits — as a machine-readable artifact (BENCH_labels.json).
//
// Usage:
//
//	go test -bench . -benchmem . | benchjson -o BENCH_labels.json
//	benchjson -delta old.json new.json
//
// Delta mode compares two such documents benchmark by benchmark, printing
// the new/old ratio of ns/op, B/op, allocs/op — and, for daemon load
// sweeps, p99-ms and retries — for every shared name, and exits nonzero
// when any ratio exceeds its threshold (-max-time-ratio, -max-bytes-ratio,
// -max-allocs-ratio, -max-p99-ratio, -max-retries-ratio) — the CI
// regression gates of `make bench-smoke` and `make bench-daemon`. A
// benchmark that was allocation-free and now allocates is always a
// regression under the allocs gate (the ratio is reported as +Inf), which
// is how the zero-allocation warm-sweep invariant is enforced at the
// benchmark level. The retries gate compares (new+1)/(old+1), since a
// zero-retry baseline is the healthy norm.
//
// Names present in only one document are informational by default ("only in
// new" is how a freshly added benchmark rides through the gate until its
// baseline is committed). -require-old makes new-only names fatal, for gates
// whose baseline is supposed to already cover every benchmark in the run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Doc is the emitted document: the run context lines go test prints (goos,
// goarch, cpu, pkg) plus one entry per benchmark result line.
type Doc struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// Benchmark is one result line: the benchmark name (including sub-benchmark
// path and -cpu suffix), the iteration count, and every reported metric
// keyed by its unit.
type Benchmark struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

// Parse reads `go test -bench` output and collects context and results.
// Unparseable lines (test chatter, PASS/ok trailers) are skipped.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Context[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, N, then (value, unit) pairs: Benchmark... 8 123 ns/op 4 allocs/op
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], N: n, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok && len(b.Metrics) > 0 {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// DeltaRow is one benchmark's old-vs-new comparison. Ratios are new/old;
// a ratio is 0 when the metric is absent on either side (nothing to gate).
type DeltaRow struct {
	Name         string
	TimeRatio    float64 // ns/op new/old
	BytesRatio   float64 // B/op new/old
	AllocsRatio  float64 // allocs/op new/old; +Inf when 0 allocs grew to >0
	P99Ratio     float64 // p99-ms new/old (daemon load sweeps)
	RetriesRatio float64 // retries (new+1)/(old+1): smoothed, since 0 is common
	OnlyIn       string  // "old" or "new" when the name is not shared, else ""
}

// ratio returns new/old for one metric, or 0 when it cannot be formed.
func ratio(oldM, newM map[string]float64, unit string) float64 {
	o, okO := oldM[unit]
	n, okN := newM[unit]
	if !okO || !okN || o <= 0 {
		return 0
	}
	return n / o
}

// allocsRatio is ratio for allocs/op with one extra rule: an old count of
// exactly zero is meaningful (the zero-allocation invariant), so growing from
// 0 to anything positive reports +Inf — always beyond any finite threshold —
// instead of the generic "cannot be formed" 0.
func allocsRatio(oldM, newM map[string]float64) float64 {
	o, okO := oldM["allocs/op"]
	n, okN := newM["allocs/op"]
	if !okO || !okN {
		return 0
	}
	if o == 0 {
		if n > 0 {
			return math.Inf(1)
		}
		return 1
	}
	return n / o
}

// retriesRatio compares the "retries" counters as (new+1)/(old+1): a zero
// baseline is the normal case for an unloaded sweep, so the plain ratio
// would be unformable exactly when the gate matters most (0 retries
// suddenly becoming thousands). The +1 smoothing keeps 0 -> 0 at 1.0 while
// 0 -> 999 reads as 1000x — well past any sane threshold.
func retriesRatio(oldM, newM map[string]float64) float64 {
	o, okO := oldM["retries"]
	n, okN := newM["retries"]
	if !okO || !okN {
		return 0
	}
	return (n + 1) / (o + 1)
}

// Delta pairs the two documents' benchmarks by name, in the new document's
// order, with old-only names appended.
func Delta(oldDoc, newDoc *Doc) []DeltaRow {
	oldByName := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldByName[b.Name] = b
	}
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	var rows []DeltaRow
	for _, nb := range newDoc.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldByName[nb.Name]
		if !ok {
			rows = append(rows, DeltaRow{Name: nb.Name, OnlyIn: "new"})
			continue
		}
		rows = append(rows, DeltaRow{
			Name:         nb.Name,
			TimeRatio:    ratio(ob.Metrics, nb.Metrics, "ns/op"),
			BytesRatio:   ratio(ob.Metrics, nb.Metrics, "B/op"),
			AllocsRatio:  allocsRatio(ob.Metrics, nb.Metrics),
			P99Ratio:     ratio(ob.Metrics, nb.Metrics, "p99-ms"),
			RetriesRatio: retriesRatio(ob.Metrics, nb.Metrics),
		})
	}
	for _, ob := range oldDoc.Benchmarks {
		if !seen[ob.Name] {
			rows = append(rows, DeltaRow{Name: ob.Name, OnlyIn: "old"})
		}
	}
	return rows
}

// Gates holds the delta-mode regression thresholds; a zero field disables
// that gate. The p99 and retries gates exist for the daemon load sweep,
// where tail latency and shed-load churn regress long before the mean does.
type Gates struct {
	MaxTime    float64 // ns/op ratio ceiling
	MaxBytes   float64 // B/op ratio ceiling
	MaxAllocs  float64 // allocs/op ratio ceiling
	MaxP99     float64 // p99-ms ratio ceiling
	MaxRetries float64 // retries (new+1)/(old+1) ceiling
}

// FormatDelta renders the comparison table and returns the number of rows
// whose ratio exceeds its gate (a zero gate is disabled). Regressing rows
// are marked REGRESSED. Unshared names are informational, except that
// requireOld makes a name with no old baseline ("only in new") count as a
// regression — an old-only name stays informational either way, since a
// deliberately removed benchmark has nothing left to gate.
func FormatDelta(w io.Writer, rows []DeltaRow, g Gates, requireOld bool) (regressions int) {
	fmt.Fprintf(w, "%-44s %13s %12s %15s %13s %15s\n",
		"benchmark", "ns/op new/old", "B/op new/old", "allocs new/old", "p99 new/old", "retries n+1/o+1")
	for _, r := range rows {
		if r.OnlyIn != "" {
			mark := ""
			if requireOld && r.OnlyIn == "new" {
				mark = "  REGRESSED (no baseline)"
				regressions++
			}
			fmt.Fprintf(w, "%-44s only in %s%s\n", r.Name, r.OnlyIn, mark)
			continue
		}
		bad := (g.MaxTime > 0 && r.TimeRatio > g.MaxTime) ||
			(g.MaxBytes > 0 && r.BytesRatio > g.MaxBytes) ||
			(g.MaxAllocs > 0 && r.AllocsRatio > g.MaxAllocs) ||
			(g.MaxP99 > 0 && r.P99Ratio > g.MaxP99) ||
			(g.MaxRetries > 0 && r.RetriesRatio > g.MaxRetries)
		mark := ""
		if bad {
			mark = "  REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-44s %13.3f %12.3f %15.3f %13.3f %15.3f%s\n",
			r.Name, r.TimeRatio, r.BytesRatio, r.AllocsRatio, r.P99Ratio, r.RetriesRatio, mark)
	}
	return regressions
}

func loadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	delta := flag.Bool("delta", false, "compare two benchmark JSON files: benchjson -delta old.json new.json")
	maxTime := flag.Float64("max-time-ratio", 3.0, "delta mode: fail when ns/op grows beyond this new/old ratio (0 disables)")
	maxBytes := flag.Float64("max-bytes-ratio", 1.5, "delta mode: fail when B/op grows beyond this new/old ratio (0 disables)")
	maxAllocs := flag.Float64("max-allocs-ratio", 1.5, "delta mode: fail when allocs/op grows beyond this new/old ratio (0 disables; 0 allocs growing to any is always a failure)")
	maxP99 := flag.Float64("max-p99-ratio", 0, "delta mode: fail when p99-ms grows beyond this new/old ratio (0 disables; daemon load sweeps)")
	maxRetries := flag.Float64("max-retries-ratio", 0, "delta mode: fail when retries grow beyond this (new+1)/(old+1) ratio (0 disables)")
	requireOld := flag.Bool("require-old", false, "delta mode: fail when a benchmark in the new document has no old baseline (default: informational)")
	flag.Parse()

	if *delta {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-delta needs exactly two files, got %d", flag.NArg()))
		}
		oldDoc, err := loadDoc(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newDoc, err := loadDoc(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		g := Gates{MaxTime: *maxTime, MaxBytes: *maxBytes, MaxAllocs: *maxAllocs, MaxP99: *maxP99, MaxRetries: *maxRetries}
		if n := FormatDelta(os.Stdout, Delta(oldDoc, newDoc), g, *requireOld); n > 0 {
			fatal(fmt.Errorf("%d benchmark(s) regressed beyond thresholds (ns/op > %gx, B/op > %gx, allocs/op > %gx, p99-ms > %gx, retries > %gx)",
				n, *maxTime, *maxBytes, *maxAllocs, *maxP99, *maxRetries))
		}
		return
	}

	doc, err := Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
