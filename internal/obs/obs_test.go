package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/telemetry"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// traceMurmur records a short Murmur run with the lifecycle recorder on.
func traceMurmur(t *testing.T, node translator.Node) (*telemetry.Tracer, *uarch.Result) {
	t.Helper()
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	out, err := translator.Translate(hashes.MurmurTemplate(), node, translator.Options{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	sim := uarch.NewSim(cpu)
	tr := telemetry.NewTracer()
	sim.SetTracer(tr)
	res, err := sim.Run(out.Program, 16)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// TestChromeTraceGolden checks the exporter's structural contract: valid
// JSON in the Chrome object format, with monotonically non-decreasing ts
// over the whole document and one duration event per issued instruction.
func TestChromeTraceGolden(t *testing.T) {
	tr, res := traceMurmur(t, translator.Node{V: 1, S: 1, P: 2})
	out, err := ChromeTrace([]TraceSection{{Name: "murmur hybrid", Spans: tr.Spans()}})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out) {
		t.Fatalf("export is not valid JSON:\n%.200s", out)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  string         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}
	last := int64(-1)
	var durations uint64
	for i, ev := range doc.TraceEvents {
		if ev.Ts < last {
			t.Fatalf("event %d (%s): ts %d < previous %d — not monotonically non-decreasing", i, ev.Name, ev.Ts, last)
		}
		last = ev.Ts
		if ev.Ph == "X" {
			durations++
			if ev.Dur <= 0 {
				t.Errorf("duration event %s has dur %d", ev.Name, ev.Dur)
			}
			if !strings.HasPrefix(ev.Tid, "port ") {
				t.Errorf("duration event %s on track %q, want a port track", ev.Name, ev.Tid)
			}
		}
	}
	if durations != res.Instructions {
		t.Errorf("export has %d duration events, want one per instruction (%d)", durations, res.Instructions)
	}
}

// plantedEval scores nodes by distance from a planted optimum (monotone
// landscape, as in the hef package's own search tests).
type plantedEval struct{ opt hef.Node }

func (f *plantedEval) Evaluate(n hef.Node) (float64, error) {
	d := iabs(n.V-f.opt.V) + iabs(n.S-f.opt.S) + iabs(n.P-f.opt.P)
	return 1e-9 * float64(1+d), nil
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestSearchDOTNamesWinner checks the DOT export names the planted optimum
// as the search winner and marks pruned edges dashed.
func TestSearchDOTNamesWinner(t *testing.T) {
	opt := hef.Node{V: 1, S: 2, P: 3}
	res, err := hef.Search(&plantedEval{opt: opt}, hef.Node{V: 2, S: 3, P: 4}, hef.DefaultBounds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != opt {
		t.Fatalf("search found %v, want planted optimum %v", res.Best, opt)
	}
	dot := SearchDOT(res)
	if !strings.Contains(dot, "winner "+opt.String()) {
		t.Errorf("DOT does not name the planted optimum as winner:\n%.300s", dot)
	}
	if !strings.Contains(dot, "peripheries=2") {
		t.Error("DOT does not highlight the winning node")
	}
	if !strings.Contains(dot, "style=dashed") {
		t.Error("DOT has no pruned (dashed) entries")
	}
	if !strings.HasPrefix(dot, "digraph ") {
		t.Errorf("DOT does not start a digraph: %.40q", dot)
	}

	// The JSON form must round-trip and agree on the winner.
	js, err := SearchJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(js, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Search == nil || rep.Search.Best != opt.String() {
		t.Errorf("search JSON best = %+v, want %s", rep.Search, opt)
	}
	if rep.Search.Tested != res.Tested || len(rep.Search.Steps) != len(res.Trace) {
		t.Errorf("search JSON records %d tested / %d steps, want %d / %d",
			rep.Search.Tested, len(rep.Search.Steps), res.Tested, len(res.Trace))
	}
	if n := len(rep.Search.BestPath); n == 0 || rep.Search.BestPath[n-1] != opt.String() {
		t.Errorf("best path %v does not end at the optimum", rep.Search.BestPath)
	}
}

// TestRunReportRoundTrip checks a report built from real simulator counters
// survives encoding/json unchanged in its key fields, including the stall
// buckets.
func TestRunReportRoundTrip(t *testing.T) {
	_, res := traceMurmur(t, translator.Node{V: 0, S: 1, P: 1})

	rep := NewReport("obs-test")
	rep.CPU = "Intel Xeon Silver 4110"
	rep.Params["bench"] = "murmur"
	rep.Runs = append(rep.Runs, RunFromResult("murmur", "Scalar", "n(v=0,s=1,p=1)", res, res.Seconds()))

	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var got RunReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("round-trip has %d runs, want 1", len(got.Runs))
	}
	r := got.Runs[0]
	if r.Cycles != res.Cycles || r.Instructions != res.Instructions || r.Elems != res.Elems {
		t.Errorf("round-trip counters = %d/%d/%d, want %d/%d/%d",
			r.Cycles, r.Instructions, r.Elems, res.Cycles, res.Instructions, res.Elems)
	}
	if r.Stalls != res.Stalls {
		t.Errorf("round-trip stalls = %+v, want %+v", r.Stalls, res.Stalls)
	}
	if r.Stalls.Total() != r.Cycles {
		t.Errorf("round-trip stall buckets sum to %d, want %d", r.Stalls.Total(), r.Cycles)
	}
	if len(r.PortUtil) != len(res.PortBusy) {
		t.Errorf("round-trip has %d port-util entries, want %d", len(r.PortUtil), len(res.PortBusy))
	}
}

// TestValidateRejectsForeignDocuments checks the schema guard.
func TestValidateRejectsForeignDocuments(t *testing.T) {
	bad := RunReport{Schema: "something-else", Version: SchemaVersion}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a foreign schema")
	}
	bad = RunReport{Schema: Schema, Version: SchemaVersion + 1}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a future schema version")
	}
}
