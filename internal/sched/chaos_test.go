// Chaos harness: deterministic fault injection against the checkpoint/resume
// sweep. Seeded first-attempt panics and mid-run cancellations are injected
// into real HEF workloads (sensitivity analyses, SSB figure runs), and the
// tests assert the sweep contract: a panic is a *PanicError failure that
// never reaches the checkpoint, the resume runs exactly the failed and
// unstarted tasks, and the killed-and-resumed sweep produces a report
// byte-identical to an uninterrupted run.
//
// `make chaos` runs this file (plus the drain tests) with -race; the
// CHAOS_SEED environment variable reseeds the injected faults, and
// CHAOS_ARTIFACT_DIR redirects checkpoint files somewhere CI can upload on
// failure.
package sched_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"hef/internal/experiments"
	"hef/internal/isa"
	"hef/internal/leakcheck"
	"hef/internal/obs"
	"hef/internal/queries"
	"hef/internal/robust"
	"hef/internal/sched"
)

// chaosSeed seeds every injected fault; override with CHAOS_SEED.
func chaosSeed(t *testing.T) uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 20230401
}

// artifactDir places checkpoints under CHAOS_ARTIFACT_DIR when set (so CI
// uploads them on failure), else in the test's temp dir.
func artifactDir(t *testing.T) string {
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		sub := filepath.Join(dir, t.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// chaosRand is a splitmix64 draw, so the fault plan is a pure function of
// the seed.
func chaosRand(seed uint64, k int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(k+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// killAndResume runs tasks twice on a checkpoint. The killed run injects
// the seeded first-attempt panics and is cancelled by its own task after
// killAfter completions; the resume runs without faults. It asserts the
// contract between the two and returns the resumed results:
//
//   - every injected panic that ran is a *PanicError failure, and the
//     killed run's checkpoint holds exactly its completed results;
//   - the resume runs exactly the tasks the killed run failed or never
//     started, once each, so a checkpointed task never runs again.
func killAndResume[T any](t *testing.T, tool string, tasks []sched.Task[T], workers, killAfter int, seed uint64) map[string]T {
	t.Helper()
	panics := make([]bool, len(tasks))
	completable := 0
	for i := range tasks {
		panics[i] = chaosRand(seed, 1000+i)%2 == 0
		if !panics[i] {
			completable++
		}
	}
	if completable < killAfter {
		t.Skipf("seed %d injects a panic into all but %d of %d tasks; no kill after %d completions", seed, completable, len(tasks), killAfter)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var done int
	wrap := func(calls map[string]int, inject bool) []sched.Task[T] {
		out := make([]sched.Task[T], len(tasks))
		for i, task := range tasks {
			out[i] = sched.Task[T]{ID: task.ID, Run: func(ctx context.Context) (T, error) {
				mu.Lock()
				calls[task.ID]++
				mu.Unlock()
				if inject && panics[i] {
					panic("chaos: injected evaluator panic in " + task.ID)
				}
				v, err := task.Run(ctx)
				if inject && err == nil {
					mu.Lock()
					if done++; done == killAfter {
						cancel()
					}
					mu.Unlock()
				}
				return v, err
			}}
		}
		return out
	}

	cp := filepath.Join(artifactDir(t), tool+".checkpoint.json")
	killedCalls := map[string]int{}
	killed, err := sched.RunSweep(ctx, sched.SweepConfig{
		Tool: tool, Fingerprint: "chaos", CheckpointPath: cp, Workers: workers,
	}, wrap(killedCalls, true))
	if err == nil || !killed.Interrupted {
		t.Fatalf("killed run: err=%v interrupted=%v, want interrupted", err, killed.Interrupted)
	}
	if len(killed.Results) == 0 || len(killed.Results) == len(tasks) {
		t.Fatalf("killed run completed %d/%d tasks; the kill should land mid-run", len(killed.Results), len(tasks))
	}
	failed := map[string]error{}
	for _, f := range killed.Failed {
		failed[f.ID] = f.Err
	}
	for i, task := range tasks {
		if killedCalls[task.ID] == 0 || !panics[i] {
			continue
		}
		var pe *sched.PanicError
		if !errors.As(failed[task.ID], &pe) {
			t.Errorf("%s: injected panic surfaced as %v, want a *PanicError failure", task.ID, failed[task.ID])
		}
	}
	saved, err := sched.LoadCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Done) != len(killed.Results) {
		t.Errorf("killed checkpoint holds %d tasks, the run completed %d", len(saved.Done), len(killed.Results))
	}
	for id := range saved.Done {
		if _, ok := killed.Results[id]; !ok {
			t.Errorf("killed checkpoint holds %s, which did not complete", id)
		}
	}

	resumeCalls := map[string]int{}
	resumed, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: tool, Fingerprint: "chaos", CheckpointPath: cp, ResumePath: cp, Workers: workers,
	}, wrap(resumeCalls, false))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Resumed != len(killed.Results) || resumed.Resumed+resumed.Executed != len(tasks) {
		t.Errorf("resume: %d resumed + %d executed, want %d + %d",
			resumed.Resumed, resumed.Executed, len(killed.Results), len(tasks)-len(killed.Results))
	}
	for _, task := range tasks {
		want := 1
		if _, wasDone := killed.Results[task.ID]; wasDone {
			want = 0
		}
		if resumeCalls[task.ID] != want {
			t.Errorf("%s ran %d times in the resume, want %d", task.ID, resumeCalls[task.ID], want)
		}
	}
	return resumed.Results
}

// hefsensTasks builds the same (cpu, op) sensitivity jobs cmd/hefsens
// sweeps, at a budget small enough for a fast test.
func hefsensTasks(t *testing.T, cpus, ops []string, seed uint64) []sched.Task[*robust.Sensitivity] {
	var tasks []sched.Task[*robust.Sensitivity]
	for _, cpuName := range cpus {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatal(err)
		}
		for _, opName := range ops {
			tmpl, err := experiments.OpTemplate(opName)
			if err != nil {
				t.Fatal(err)
			}
			cfg := robust.SensConfig{
				CPU: cpu, Template: tmpl,
				Elems: 256, Seed: seed, Trials: 2, Jitter: 0.05, Budget: 3,
			}
			tasks = append(tasks, sched.Task[*robust.Sensitivity]{
				ID: cpuName + "/" + opName,
				Run: func(ctx context.Context) (*robust.Sensitivity, error) {
					return robust.Analyze(ctx, cfg)
				},
			})
		}
	}
	return tasks
}

// hefsensReport assembles the byte-deterministic sensitivity report from a
// sweep's results in task order, as cmd/hefsens does.
func hefsensReport(t *testing.T, tasks []sched.Task[*robust.Sensitivity], results map[string]*robust.Sensitivity, seed uint64) []byte {
	rep := robust.NewReport(seed, 2, 0.05, 0)
	for _, task := range tasks {
		s, ok := results[task.ID]
		if !ok {
			t.Fatalf("missing result for %s", task.ID)
		}
		rep.Add(s)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosKillResumeHefsens runs a sensitivity sweep clean, then killed
// mid-run with injected first-attempt panics and resumed, and asserts the
// resumed run's final report is byte-identical to the clean run's.
func TestChaosKillResumeHefsens(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("chaos equivalence runs real searches")
	}
	seed := chaosSeed(t)
	cpus, ops := []string{"silver", "gold"}, []string{"murmur", "probe"}
	tasks := hefsensTasks(t, cpus, ops, seed)

	base, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: "hefsens", Fingerprint: "chaos", Workers: 2,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := hefsensReport(t, tasks, base.Results, seed)

	results := killAndResume(t, "hefsens", tasks, 2, 1, seed)
	if got := hefsensReport(t, tasks, results, seed); !bytes.Equal(want, got) {
		t.Errorf("resumed report differs from uninterrupted baseline:\nbaseline %d bytes, resumed %d bytes", len(want), len(got))
	}
}

// ssbTasks builds per-(cpu, figure) SSB jobs as cmd/ssbbench -all sweeps
// them, restricted to one query and two engines for speed.
func ssbTasks(t *testing.T) []sched.Task[*obs.RunReport] {
	q, err := queries.Get("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	var tasks []sched.Task[*obs.RunReport]
	for _, cpu := range []string{"silver", "gold"} {
		for _, sf := range []float64{10, 20} {
			cfg := experiments.FigureConfig{
				CPUName: cpu, NominalSF: sf, SampleSF: 0.01, Seed: 20230401,
				Queries: []queries.Query{q},
				Engines: []experiments.EngineKind{experiments.KindScalar, experiments.KindHybrid},
			}
			tasks = append(tasks, sched.Task[*obs.RunReport]{
				ID: fmt.Sprintf("%s/sf%g", cpu, sf),
				Run: func(ctx context.Context) (*obs.RunReport, error) {
					fig, err := experiments.RunFigure(cfg)
					if err != nil {
						return nil, err
					}
					return fig.Report(), nil
				},
			})
		}
	}
	return tasks
}

// ssbReport merges per-figure reports in task order, as cmd/ssbbench -all
// -json does.
func ssbReport(t *testing.T, tasks []sched.Task[*obs.RunReport], results map[string]*obs.RunReport) []byte {
	reports := make([]*obs.RunReport, 0, len(tasks))
	for _, task := range tasks {
		rep, ok := results[task.ID]
		if !ok {
			t.Fatalf("missing result for %s", task.ID)
		}
		reports = append(reports, rep)
	}
	data, err := experiments.MergeReports("ssbbench", reports...).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosKillResumeSSB is the SSB-figure analogue of the hefsens
// equivalence test: one worker, killed after the first completed figure,
// resumed, and the merged -all report must match the uninterrupted run's
// bytes.
func TestChaosKillResumeSSB(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("chaos equivalence runs real figure simulations")
	}
	seed := chaosSeed(t)

	tasks := ssbTasks(t)
	base, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: "ssbbench", Fingerprint: "chaos", Workers: 1,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want := ssbReport(t, tasks, base.Results)

	results := killAndResume(t, "ssbbench", tasks, 1, 1, seed)
	if got := ssbReport(t, tasks, results); !bytes.Equal(want, got) {
		t.Errorf("resumed -all report differs from uninterrupted baseline (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosResumeRefusesMismatchedConfig guards the checkpoint identity
// contract: a checkpoint taken under one configuration must not silently
// seed a sweep with different flags.
func TestChaosResumeRefusesMismatchedConfig(t *testing.T) {
	leakcheck.Check(t)
	cp := filepath.Join(t.TempDir(), "cp.json")
	tasks := []sched.Task[int]{{ID: "a", Run: func(context.Context) (int, error) { return 1, nil }}}
	if _, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: "tool", Fingerprint: "seed=1", CheckpointPath: cp,
	}, tasks); err != nil {
		t.Fatal(err)
	}
	_, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: "tool", Fingerprint: "seed=2", ResumePath: cp,
	}, tasks)
	if err == nil {
		t.Fatal("sweep resumed a checkpoint with a different fingerprint")
	}
}
