package hefd

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
)

// stubRun is a deterministic runOp stand-in: the report depends only on
// (spec, op), exactly the determinism contract the real pipeline honours.
func stubRun(_ context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
	rep := obs.NewReport("hefd")
	rep.CPU = spec.CPU
	rep.Params["op"] = op
	return rep, nil
}

// newTestManager builds a manager on a temp data dir. cfg.runOp defaults
// to stubRun; it must be set in the Config (not after New) because workers
// start inside New.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.LogW == nil {
		cfg.LogW = io.Discard
	}
	if cfg.runOp == nil {
		cfg.runOp = stubRun
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("hefd.New: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunReportLifecycle(t *testing.T) {
	m := newTestManager(t, Config{})
	v, err := m.Submit(JobSpec{Ops: []string{"murmur", "crc64"}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.State != StateQueued || v.OpsTotal != 2 || v.Tenant != DefaultTenant {
		t.Fatalf("unexpected accepted view: %+v", v)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.OpsDone != 2 {
		t.Fatalf("ops_done = %d, want 2", done.OpsDone)
	}
	data, err := m.Report(v.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not a RunReport: %v\n%s", err, data)
	}
	if rep.Tool != "hefd" {
		t.Fatalf("report tool = %q, want hefd", rep.Tool)
	}
	// Listing shows the job; an unknown tenant filter hides it.
	if got := len(m.List("")); got != 1 {
		t.Fatalf("list all: %d jobs, want 1", got)
	}
	if got := len(m.List("nobody")); got != 0 {
		t.Fatalf("list nobody: %d jobs, want 0", got)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	m := newTestManager(t, Config{})
	for name, spec := range map[string]JobSpec{
		"no ops":         {},
		"unknown op":     {Ops: []string{"nosuchop"}},
		"unknown cpu":    {CPU: "copper", Ops: []string{"murmur"}},
		"duplicate op":   {Ops: []string{"murmur", "murmur"}},
		"bad tenant":     {Tenant: "No Spaces!", Ops: []string{"murmur"}},
		"negative pace":  {Ops: []string{"murmur"}, DeadlineMS: -1},
		"oversize elems": {Ops: []string{"murmur"}, Elems: MaxElems + 1},
	} {
		if _, err := m.Submit(spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
	if got := len(m.List("")); got != 0 {
		t.Fatalf("invalid specs entered the job table: %d", got)
	}
}

func TestQueueFullShedsWithGrowingRetryAfter(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, QueueSize: 2, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		select {
		case <-release:
			return stubRun(ctx, spec, op)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	var accepted []string
	for i := 0; i < 2; i++ {
		v, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
		if err != nil {
			t.Fatalf("submit %d within capacity: %v", i, err)
		}
		accepted = append(accepted, v.ID)
	}
	var shed *ShedError
	if _, err := m.Submit(JobSpec{Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedQueueFull {
		t.Fatalf("over-capacity submit: %v, want queue_full shed", err)
	}
	first := shed.RetryAfter
	if first <= 0 {
		t.Fatal("queue_full shed carries no Retry-After")
	}
	if _, err := m.Submit(JobSpec{Ops: []string{"murmur"}}); !errors.As(err, &shed) {
		t.Fatalf("second over-capacity submit: %v", err)
	}
	if shed.RetryAfter <= first {
		t.Fatalf("Retry-After did not grow under persistent overload: %v then %v", first, shed.RetryAfter)
	}

	close(release)
	for _, id := range accepted {
		waitState(t, m, id, StateDone)
	}
	// Capacity freed: admission works again and the backoff reset.
	v, err := m.Submit(JobSpec{Ops: []string{"crc64"}})
	if err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
	waitState(t, m, v.ID, StateDone)
}

func TestQuotaShedsPerTenant(t *testing.T) {
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, Config{Quota: QuotaConfig{Rate: 1, Burst: 1}, Clock: clock})
	if _, err := m.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("alice's first submit: %v", err)
	}
	var shed *ShedError
	if _, err := m.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedQuota {
		t.Fatalf("alice's burst-exceeding submit: %v, want quota shed", err)
	}
	if shed.RetryAfter != time.Second {
		t.Fatalf("quota Retry-After = %v, want 1s at rate 1", shed.RetryAfter)
	}
	// Another tenant is unaffected; time refills alice.
	if _, err := m.Submit(JobSpec{Tenant: "bob", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("bob shed by alice's quota: %v", err)
	}
	clock.Advance(time.Second)
	if _, err := m.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("alice refused after refill: %v", err)
	}
}

func TestTenantBreakerShedsPoisonedTenant(t *testing.T) {
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	var healthy atomic.Bool
	m := newTestManager(t, Config{
		Breaker: sched.BreakerConfig{Threshold: 2, Cooldown: 10 * time.Second},
		Clock:   clock,
		runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
			if healthy.Load() {
				return stubRun(ctx, spec, op)
			}
			return nil, errors.New("poisoned spec")
		},
	})
	for i := 0; i < 2; i++ {
		v, err := m.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitState(t, m, v.ID, StateFailed)
	}
	var shed *ShedError
	if _, err := m.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedBreakerOpen {
		t.Fatalf("submit with open breaker: %v, want tenant_breaker_open", err)
	}
	if shed.RetryAfter != 10*time.Second {
		t.Fatalf("breaker Retry-After = %v, want full 10s cooldown", shed.RetryAfter)
	}
	// Other tenants keep working while mallory is shed.
	v, err := m.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}})
	if err != nil {
		t.Fatalf("alice shed by mallory's breaker: %v", err)
	}
	waitState(t, m, v.ID, StateFailed) // runOp still failing; alice fails on her own terms
	// Cooldown elapses; the probe succeeds and closes the circuit.
	healthy.Store(true)
	clock.Advance(11 * time.Second)
	probe, err := m.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}})
	if err != nil {
		t.Fatalf("probe refused after cooldown: %v", err)
	}
	waitState(t, m, probe.ID, StateDone)
	if _, err := m.Submit(JobSpec{Tenant: "mallory", Ops: []string{"crc64"}}); err != nil {
		t.Fatalf("submit after closed circuit: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newTestManager(t, Config{Workers: 1, QueueSize: 8, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		select {
		case <-release:
			return stubRun(ctx, spec, op)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	blocker, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit(JobSpec{Ops: []string{"crc64"}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if v.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", v.State)
	}
	// Idempotent on a terminal job.
	if v, err = m.Cancel(queued.ID); err != nil || v.State != StateCancelled {
		t.Fatalf("re-cancel: %v %+v", err, v)
	}
	if _, err := m.Report(queued.ID); !errors.Is(err, ErrReportNotReady) {
		t.Fatalf("report of cancelled job: %v, want ErrReportNotReady", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	m := newTestManager(t, Config{Workers: 1, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	v, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, m, v.ID, StateCancelled)
}

func TestDeadlineFailsJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	v, err := m.Submit(JobSpec{Ops: []string{"murmur"}, DeadlineMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, v.ID, StateFailed)
	if failed.Error == "" {
		t.Fatal("deadline failure carries no error message")
	}
}

func TestUnknownJobLookups(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, err := m.Get("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("get: %v", err)
	}
	if _, err := m.Report("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("report: %v", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel: %v", err)
	}
}

func TestSubmitStorageFailureRefusesJob(t *testing.T) {
	m := newTestManager(t, Config{FS: &failAfterFS{FS: store.OS, remaining: 0}})
	_, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
	if !errors.Is(err, store.ErrLogUnavailable) {
		t.Fatalf("submit on failed storage: %v, want store.ErrLogUnavailable", err)
	}
	// The refusal is complete: no ghost job exists.
	if got := len(m.List("")); got != 0 {
		t.Fatalf("refused job appeared in the table: %d entries", got)
	}
}

func TestDrainShedsSubmissions(t *testing.T) {
	m := newTestManager(t, Config{})
	m.StartDrain()
	var shed *ShedError
	if _, err := m.Submit(JobSpec{Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedDraining {
		t.Fatalf("submit while draining: %v, want draining shed", err)
	}
}

// The robustness centerpiece: a drain parks a half-done job with its
// checkpoint, and the next manager on the same data dir finishes it
// without re-running completed operators — emitting bytes identical to an
// uninterrupted run.
func TestDrainParksAndResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Ops: []string{"murmur", "crc64"}}

	// Baseline: the uninterrupted run on a separate data dir. Job IDs are
	// deterministic (sequence + spec digest), so the IDs match too.
	baseline := newTestManager(t, Config{})
	bv, err := baseline.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, baseline, bv.ID, StateDone)
	want, err := baseline.Report(bv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the second operator blocks until the drain cancels
	// it, so exactly one operator is checkpointed at park time.
	blocked := make(chan struct{}, 1)
	m1, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: func(ctx context.Context, s JobSpec, op string) (*obs.RunReport, error) {
		if op == "crc64" {
			blocked <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return stubRun(ctx, s, op)
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != bv.ID {
		t.Fatalf("job IDs diverge: %s vs baseline %s", v.ID, bv.ID)
	}
	<-blocked
	if err := m1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, err := m1.Get(v.ID); err != nil || got.State != StateParked {
		t.Fatalf("after drain: %+v %v, want parked", got, err)
	}

	// Restart: the parked job resumes. The first operator must come from
	// the checkpoint, not a re-run.
	m2, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: func(ctx context.Context, s JobSpec, op string) (*obs.RunReport, error) {
		if op == "murmur" {
			return nil, errors.New("murmur re-ran despite its checkpoint")
		}
		return stubRun(ctx, s, op)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Counts().Recovered; got != 1 {
		t.Fatalf("recovered = %d, want 1", got)
	}
	waitState(t, m2, v.ID, StateDone)
	got, err := m2.Report(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed report differs from uninterrupted baseline:\n--- resumed\n%s\n--- baseline\n%s", got, want)
	}
}

// Recovery replays terminal jobs as history, not work: a done job's report
// serves without its operators re-running.
func TestRecoveryServesCompletedJobsWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(JobSpec{Ops: []string{"murmur"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, v.ID, StateDone)
	want, _ := m1.Report(v.ID)
	m1.Close()

	var reran atomic.Int32
	m2, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: func(ctx context.Context, s JobSpec, op string) (*obs.RunReport, error) {
		reran.Add(1)
		return stubRun(ctx, s, op)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Report(v.ID)
	if err != nil {
		t.Fatalf("recovered report: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("recovered report bytes differ")
	}
	if c := m2.Counts(); c.Recovered != 0 || c.Done != 1 {
		t.Fatalf("counts after recovery: %+v", c)
	}
	time.Sleep(20 * time.Millisecond)
	if reran.Load() != 0 {
		t.Fatalf("done job re-ran %d operators after recovery", reran.Load())
	}
}

// A corrupt job log salvages at open and the manager still comes up with
// every intact record's state.
func TestManagerOpensOnTornJobLog(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(JobSpec{Ops: []string{"murmur"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, v.ID, StateDone)
	m1.Close()

	// Tear the tail: the trailing bytes of the last record vanish, as a
	// crash mid-append would leave them.
	path := filepath.Join(dir, JobLogName)
	data, err := store.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.OS.Truncate(path, int64(len(data)-5)); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{DataDir: dir, LogW: io.Discard, runOp: stubRun})
	if err != nil {
		t.Fatalf("manager refused a salvageable log: %v", err)
	}
	defer m2.Close()
	// The torn record was a later transition; the job itself replayed and
	// is re-queued or done — either way it is known, not lost.
	if _, err := m2.Get(v.ID); err != nil {
		t.Fatalf("job lost to a torn tail: %v", err)
	}
	waitState(t, m2, v.ID, StateDone)
}
