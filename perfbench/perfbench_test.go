package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"turbosyn"
	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
	"turbosyn/internal/sim"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEndNames, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEndNames, perLayerNames
}

// TestTinyRunsPrintEveryMetric runs each workload at test size, untraced
// and traced, and checks that the result line is well formed, every
// operation passed its check, and the metrics are exactly those of
// BENCHMARK.json.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: time.Second, trace: trace, tiny: true, workdir: t.TempDir()}
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := e2e
				if trace {
					want = layers
				}
				var got []string
				for m := range res.Metrics {
					got = append(got, m)
				}
				sort.Strings(got)
				want = append([]string(nil), want...)
				sort.Strings(want)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
				}
				if !trace {
					for _, m := range want {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}

// TestOracleCountsFlippedLUTBit corrupts one truth-table bit of a mapped
// LUT and checks that the output check rejects the netlist and the report
// counts the operation as failed.
func TestOracleCountsFlippedLUTBit(t *testing.T) {
	var c *netlist.Circuit
	for _, cs := range bench.Suite() {
		if cs.Name == "bbara" {
			c = cs.Circuit
		}
	}
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, c); err != nil {
		t.Fatal(err)
	}
	in := input{name: "bbara", blif: buf.Bytes(), vecs: sim.RandomVectors(rand.New(rand.NewSource(1)), 256, len(c.PIs))}
	o, err := synthOnce(in, turbosyn.Options{K: lutK, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(o.in, o.res, o.blif, in.vecs); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}

	// Flip bits of the LUT driving the first output until one changes the
	// simulated behaviour (a flip on an unreachable minterm does not).
	mapped := o.res.Mapped
	lut := mapped.Nodes[mapped.Nodes[mapped.POs[0]].Fanins[0].From]
	if lut.Kind != netlist.Gate {
		t.Fatalf("first output is driven by %v, not a LUT", lut.Kind)
	}
	var bad error
	orig := lut.Func
	for bit := 0; bit < 1<<len(lut.Fanins) && bad == nil; bit++ {
		lut.Func = orig.Clone()
		lut.Func.SetBit(bit, !orig.Bit(bit))
		bad = checkResult(o.in, o.res, o.blif, in.vecs)
	}
	if bad == nil {
		t.Fatal("no single-bit flip of the output LUT was detected")
	}
	rep := newReport()
	rep.op("flipped", bad)
	if rep.attempted != 1 || rep.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1/1", rep.attempted, rep.failed)
	}
}

// TestOpenLoopLatencyFromScheduledTime drives a step through one client
// against a stub daemon that takes 20ms per job, with arrivals 1ms apart.
// The client falls behind; each job's latency must include the time it
// waited to be sent, so it grows along the step instead of staying at the
// 20ms the daemon needs per job.
func TestOpenLoopLatencyFromScheduledTime(t *testing.T) {
	const service = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j"}`)
	})
	mux.HandleFunc("GET /jobs/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		fmt.Fprintln(w, `{"id":"j","tenant":"t","state":"done","result":{"phi":1,"luts":2}}`)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, quickBLIF)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep := newReport()
	d := newDaemonRun(config{seed: 1, tiny: true}, rep, srv.URL)
	d.clients = 1
	d.kinds = []*jobKind{{name: "quick", phi: 1, luts: 2}}
	st := d.step(1000, 10*time.Millisecond)
	d.check(st)
	if rep.failed != 0 || st.jobs != 10 {
		t.Fatalf("jobs=%d failed=%d", st.jobs, rep.failed)
	}
	last := st.lat[len(st.lat)-1]
	if last < millis(5*service) {
		t.Fatalf("last job's latency %.1fms does not include its send delay (service %v, 10 jobs through one client)", last, service)
	}
	if lag := quantile(st.lag, 0.99); lag < millis(3*service) {
		t.Fatalf("generator lag p99 %.1fms, want the backlog of a single client to show", lag)
	}
}
