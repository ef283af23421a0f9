package mount

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"hef/internal/hef"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/telemetry"
	"hef/internal/uarch"
)

func TestDisabledSessionIsNil(t *testing.T) {
	s, err := Start(Options{Tool: "t"})
	if err != nil || s != nil {
		t.Fatalf("disabled Start = %v, %v", s, err)
	}
	// All methods no-op on nil.
	s.SetReady()
	s.SetDraining()
	s.ObserveStore(nil)
	s.AttachReport(nil)
	if s.Registry() != nil || s.SweepMetrics() != nil {
		t.Fatal("nil session leaked live instruments")
	}
	s.Close()
}

func TestMountedSession(t *testing.T) {
	memo.ResetTotals()
	uarch.ResetTotals()

	var log strings.Builder
	s, err := Start(Options{Tool: "mount-test", MetricsAddr: "127.0.0.1:0", LogW: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(log.String(), "telemetry serving on 127.0.0.1:") {
		t.Fatalf("missing serving line: %q", log.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(log.String(), "mount-test: telemetry serving on "))

	// Drive the bridged sources (a memo miss/hit pair) and a one-task sweep
	// on the session's sweep instruments.
	c := memo.NewCache()
	k := memo.Key{1}
	c.Get(k)
	c.Put(k, &uarch.Result{Cycles: 1})
	c.Get(k)
	if _, err := sched.RunSweep(context.Background(), sched.SweepConfig{Metrics: s.SweepMetrics()},
		[]sched.Task[int]{{ID: "j", Run: func(context.Context) (int, error) { return 1, nil }}}); err != nil {
		t.Fatal(err)
	}

	s.SetReady()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		telemetry.MetricMemoHits + " 1",
		telemetry.MetricMemoMisses + " 1",
		telemetry.MetricMemoHitRate + " 0.5",
		telemetry.MetricSweepTasks + " 1",
		telemetry.MetricSweepDone + " 1",
		telemetry.MetricUptime,
		telemetry.MetricSimInstr,
		telemetry.MetricSimIdleSkipped,
		telemetry.MetricSimSkelHits,
		telemetry.MetricSimSkelMisses,
		telemetry.MetricSimReplayPeriods,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	rep := obs.NewReport("mount-test")
	s.AttachReport(rep)
	if rep.Telemetry == nil || rep.Telemetry.Series[telemetry.MetricSweepDone] != 1 {
		t.Fatalf("report telemetry block = %+v", rep.Telemetry)
	}
	if rep.Telemetry.UptimeSeconds <= 0 {
		t.Fatal("no uptime in report block")
	}
}

// TestWriteTrace: a Trace-only session (no server, no heartbeat) is live,
// records lifecycle spans, and exports them as Chrome trace-event JSON.
func TestWriteTrace(t *testing.T) {
	s, err := Start(Options{Tool: "t", Trace: true, LogW: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("trace-only session should be live")
	}
	defer s.Close()
	if _, err := sched.RunSweep(context.Background(), sched.SweepConfig{Tool: "all", Metrics: s.SweepMetrics()},
		[]sched.Task[int]{{ID: "j", Run: func(context.Context) (int, error) { return 1, nil }}}); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/trace.json"
	if err := s.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"all"`) {
		t.Fatalf("trace missing sweep span:\n%s", data)
	}
	if err := s.WriteTrace(""); err != nil {
		t.Fatalf("empty path should no-op: %v", err)
	}
}

// constEval prices every node the same, so a search over it is instant.
type constEval struct{}

func (constEval) Evaluate(hef.Node) (float64, error) { return 1e-9, nil }

// TestCloseUninstallsDefaults: after Close, new searches are uninstrumented
// again — sessions don't leak into later test code.
func TestCloseUninstallsDefaults(t *testing.T) {
	s, err := Start(Options{Tool: "t", Heartbeat: time.Hour, LogW: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("heartbeat-only session should be live")
	}
	search := func() float64 {
		t.Helper()
		if _, err := hef.Search(constEval{}, hef.Node{V: 1, S: 1, P: 1}, hef.DefaultBounds); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Registry().Value(telemetry.MetricEvaluated)
		return got
	}
	open := search()
	if open == 0 {
		t.Fatal("the open session recorded no search evaluations")
	}
	s.Close()
	if got := search(); got != open {
		t.Fatalf("closed session still collecting: evaluated %g, then %g", open, got)
	}
}
