package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hef/internal/core"
	"hef/internal/hefd"
	"hef/internal/memo"
	"hef/internal/queries"
)

// tinyParams is a seconds-long configuration of each workload.
func tinyParams(t *testing.T, workload string) params {
	var p params
	switch workload {
	case "search-cold", "search-warm":
		p.search = searchParams{
			slots: []opSlot{murmurSlot(), filterSlot(1), aggSlot("agg-64k", 64<<10)},
			elems: 256, parallel: 2, minRounds: 1, setupReps: 1,
		}
		if workload == "search-warm" {
			p.search.parallel = 0
		}
	case "ssb-figures":
		q, err := queries.Get("Q1.1")
		if err != nil {
			t.Fatal(err)
		}
		p.ssb = ssbParams{cpus: []string{"silver"}, sfs: []float64{10}, sampleSF: 0.001,
			queries: []queries.Query{q}, dataSeed: 7, parallel: 2, minRounds: 1, setupReps: 1}
	case "hefd-jobs":
		p.hefd = hefdParams{
			specs:   []hefd.JobSpec{{Ops: []string{"murmur"}, Elems: 256, Budget: 3}, {Ops: []string{"filter"}, Elems: 256, Budget: 3}},
			workers: 2, clients: 2, rate: 40, closedShare: 0.25, poll: 2 * time.Millisecond, maxBacklog: 40, setupReps: 1,
		}
	}
	return p
}

// runTiny runs one tiny workload and returns its bench and output. A
// traced run writes its Chrome trace to traceOut when that is not empty.
func runTiny(t *testing.T, workload string, trace bool, golden map[string]string, traceOut string) (*bench, string) {
	t.Helper()
	var out bytes.Buffer
	b := newBench(workload, 7, 300*time.Millisecond, trace, golden, &out)
	b.traceOut = traceOut
	if err := b.run(tinyParams(t, workload)); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if err := b.printJSON(); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return b, out.String()
}

// benchmarkDefs reads the metric names and units BENCHMARK.json declares.
func benchmarkDefs(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return workloads, e2e, layer
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	names, e2e, layer := benchmarkDefs(t)
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, binary runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			traceOut := ""
			if trace {
				traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			b, out := runTiny(t, w, trace, nil, traceOut)
			if b.failed > 0 {
				t.Errorf("%s trace=%t: %d of %d ops failed", w, trace, b.failed, b.attempted)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w {
					t.Fatalf("%s: malformed metric line %q", w, l)
				}
				printed[f[1]] = f[3]
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: final line is not JSON: %v", w, err)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: JSON has %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got := res.Metrics[name].Unit; got != unit {
					t.Errorf("%s trace=%t: JSON metric %s unit %q, want %q", w, trace, name, got, unit)
				}
				if got := printed[name]; got != unit {
					t.Errorf("%s trace=%t: printed metric %s unit %q, want %q", w, trace, name, got, unit)
				}
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d", w, trace, res.Correct, res.Attempted)
			}
			if trace {
				checkChromeTrace(t, traceOut)
			}
		}
	}
}

// checkChromeTrace checks that path holds Chrome trace-event JSON with
// complete events in start order.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			TS, Dur  float64
			TID      int64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: no events", path)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 || ev.TID <= 0 {
			t.Fatalf("%s: malformed event %+v", path, ev)
		}
		if i > 0 && ev.TS < doc.TraceEvents[i-1].TS {
			t.Fatalf("%s: event %d starts before its predecessor", path, i)
		}
	}
}

func TestTamperedGoldenFails(t *testing.T) {
	b, _ := runTiny(t, "search-cold", false, nil, "")
	if b.failed > 0 || len(b.observed) == 0 {
		t.Fatalf("clean run: %d failed, %d outputs observed", b.failed, len(b.observed))
	}
	golden := map[string]string{}
	for k, v := range b.observed {
		golden[k] = v
	}
	if again, _ := runTiny(t, "search-cold", false, golden, ""); again.failed != 0 {
		t.Fatalf("untampered goldens: %d ops failed", again.failed)
	}
	for k := range golden {
		if strings.HasSuffix(k, " trace") {
			golden[k] = "0000"
			break
		}
	}
	if tampered, _ := runTiny(t, "search-cold", false, golden, ""); tampered.failed == 0 {
		t.Fatal("a tampered golden left ops_failed at 0")
	}
}

func TestCommittedGoldensParse(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"search ", "ssb ", "hefd "} {
		n := 0
		for k := range g {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("no %q goldens", prefix)
		}
	}
}

func TestHostMeter(t *testing.T) {
	m := startHostMeter()
	time.Sleep(meterEvery * 5 / 2)
	f := m.finish()
	for i, k := range kernels {
		if n := len(m.samples[i]); n < 2 {
			t.Errorf("kernel %s: %d samples in %v", k.name, n, meterEvery*5/2)
		}
	}
	if !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("host factor %g", f)
	}
	if m.cpu() <= 0 {
		t.Errorf("sampling used %v of CPU time", m.cpu())
	}
}

func TestTracedSearchReproducesCore(t *testing.T) {
	p := tinyParams(t, "search-cold").search
	p.slots = append(p.slots, probeSlot("probe-1m", 1<<20))
	b := newBench("search-cold", 1, 0, false, nil, &bytes.Buffer{})
	rig, err := newSearchRig(p, b.rng(orderStream), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{0, 2} {
		for _, op := range rig.ops {
			opt, err := rig.fw.OptimizeOperatorContext(context.Background(), op.tmpl,
				core.OptimizeOptions{Parallel: parallel, Memo: memo.NewCache()})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			res, err := rig.tracedSearch(rec.root(op.name), op, parallel, memo.NewCache(), &evalStats{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := traceDigest(res), traceDigest(opt.Search); got != want || res.Best != opt.Node {
				t.Errorf("%s parallel=%d: traced search %v/%s, core %v/%s", op.name, parallel, res.Best, got, opt.Node, want)
			}
			if e := identityError(rec.snapshot(), attribute(rec.snapshot())); e > 0.01 {
				t.Errorf("%s: identity error %g", op.name, e)
			}
		}
	}
}
