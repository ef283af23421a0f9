package sched

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hef/internal/telemetry"
)

// TestSweepTelemetryByteInvariance is the determinism contract in test
// form: the same sweep run instrumented (metrics + tracer + heartbeat-ready
// registry) and uninstrumented, at different worker counts, must produce
// byte-identical checkpoints — telemetry is emit-time-only state.
func TestSweepTelemetryByteInvariance(t *testing.T) {
	mkTasks := func() []Task[int] {
		var tasks []Task[int]
		for i := 0; i < 12; i++ {
			i := i
			tasks = append(tasks, Task[int]{
				ID:  fmt.Sprintf("job-%02d", i),
				Run: func(context.Context) (int, error) { return i * i, nil },
			})
		}
		return tasks
	}
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.json")
	if _, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp", CheckpointPath: plain,
	}, mkTasks()); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	instr := filepath.Join(dir, "instr.json")
	res, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp", CheckpointPath: instr,
		Workers: 8,
		Metrics: telemetry.NewSweepMetrics(reg),
		Tracer:  tr,
	}, mkTasks())
	if err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(instr)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("instrumented checkpoint differs from plain one:\n%s\nvs\n%s", a, b)
	}

	vals := reg.Values()
	if vals[telemetry.MetricSweepTasks] != 12 || vals[telemetry.MetricSweepDone] != 12 {
		t.Errorf("sweep progress series = %v", vals)
	}
	if vals[telemetry.MetricSweepFlushes] < 1 {
		t.Error("no checkpoint flush recorded")
	}
	runSpans := 0
	for _, s := range tr.Spans() {
		if s.Track == "run" {
			runSpans++
		}
	}
	if runSpans != 12 {
		t.Errorf("%d run spans, want one per task", runSpans)
	}
	if res.Executed != 12 {
		t.Errorf("executed = %d, want 12", res.Executed)
	}

	// A resumed sweep reports resumed tasks as already done at plan time.
	reg2 := telemetry.NewRegistry()
	if _, err := RunSweep(context.Background(), SweepConfig{
		Tool: "tool", Fingerprint: "fp", ResumePath: instr,
		Metrics: telemetry.NewSweepMetrics(reg2),
	}, mkTasks()); err != nil {
		t.Fatal(err)
	}
	vals = reg2.Values()
	if vals[telemetry.MetricSweepResumed] != 12 || vals[telemetry.MetricSweepDone] != 12 {
		t.Errorf("resumed sweep series = %v", vals)
	}
}
