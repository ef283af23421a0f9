package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hef/internal/httpapi"
	"hef/internal/leakcheck"
	"hef/internal/sched"
)

// taskResult is the synthetic task output for worker tests; a struct with
// nested data keeps the marshalling honest.
type taskResult struct {
	ID    string  `json:"id"`
	Value float64 `json:"value"`
	Tags  []int   `json:"tags"`
}

// e2eTasks builds n deterministic tasks whose results depend only on the
// task index — the byte-identity contract distributed execution rests on.
func e2eTasks(n int) []sched.Task[taskResult] {
	tasks := make([]sched.Task[taskResult], n)
	for i := 0; i < n; i++ {
		i := i
		id := fmt.Sprintf("t%03d", i)
		tasks[i] = sched.Task[taskResult]{ID: id, Run: func(context.Context) (taskResult, error) {
			return taskResult{ID: id, Value: float64(i) * 1.5, Tags: []int{i, i * i}}, nil
		}}
	}
	return tasks
}

// serialCheckpointBytes runs the sweep single-process and returns the saved
// checkpoint bytes — the baseline every distributed run must reproduce.
func serialCheckpointBytes(t *testing.T, tool, fp string, tasks []sched.Task[taskResult]) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serial.ckpt")
	if _, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: tool, Fingerprint: fp, CheckpointPath: path,
	}, tasks); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWorkerEndToEndMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	const tool, fp = "testsweep", "seed=7 n=20"
	tasks := e2eTasks(20)
	want := serialCheckpointBytes(t, tool, fp, tasks)

	c, err := NewCoordinator(Config{DataDir: t.TempDir(), RangeSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, nil, nil))
	defer srv.Close()

	var wg sync.WaitGroup
	stats := make([]*WorkerStats, 2)
	errs := make([]error, 2)
	for i := range stats {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i),
				Tool: tool, Fingerprint: fp, Workers: 2,
			}, tasks)
		}()
	}
	wg.Wait()
	ranTasks := 0
	for i := range stats {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		ranTasks += stats[i].Tasks
	}
	if ranTasks < 20 {
		t.Fatalf("workers ran %d tasks, plan has 20", ranTasks)
	}

	cp, err := c.MergedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged checkpoint differs from serial run:\n%s\n----\n%s", got, want)
	}
	if c.Counts().Violations != 0 {
		t.Fatalf("determinism violations: %d", c.Counts().Violations)
	}
}

func TestWorkerFatalOnPlanMismatch(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewCoordinator(Config{DataDir: t.TempDir(), RangeSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, nil, nil))
	defer srv.Close()

	tasks := e2eTasks(8)
	if _, err := c.RegisterPlan(&PlanRequest{
		Version: ProtocolVersion, Tool: "testsweep", Fingerprint: "seed=1",
		TaskIDs: taskIDsOf(tasks), Worker: "first",
	}); err != nil {
		t.Fatal(err)
	}
	// A worker whose flags produce a different fingerprint is refused up
	// front, before any work runs.
	_, err = RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, Tool: "testsweep", Fingerprint: "seed=2",
	}, tasks)
	wantCode(t, err, CodePlanMismatch)
}

func taskIDsOf(tasks []sched.Task[taskResult]) []string {
	ids, _ := sched.TaskIDs(tasks)
	return ids
}

func TestWorkerFailureReporting(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewCoordinator(Config{DataDir: t.TempDir(), RangeSize: 2, FailLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewHandler(c, nil, nil))
	defer srv.Close()

	// One task fails deterministically: the worker reports the range, the
	// 1-report budget trips, and the worker exits on sweep_failed.
	tasks := e2eTasks(4)
	tasks[1].Run = func(context.Context) (taskResult, error) {
		return taskResult{}, fmt.Errorf("synthetic failure")
	}
	_, err = RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL, Tool: "testsweep", Fingerprint: "seed=1",
	}, tasks)
	wantCode(t, err, CodeSweepFailed)
	if cErr := c.Err(); cErr == nil || !strings.Contains(cErr.Error(), "failed") {
		t.Fatalf("coordinator error: %v", cErr)
	}
	if c.Counts().Failures == 0 {
		t.Fatal("failure report not counted")
	}
}

func TestServerAuthScopes(t *testing.T) {
	leakcheck.Check(t)
	c, err := NewCoordinator(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ring, err := httpapi.ParseKeyring([]byte(
		"writer-key-123 ops\nreader-key-123 watch scope=ro\n"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c, func() *httpapi.Keyring { return ring }, nil))
	defer srv.Close()

	post := func(key, path, body string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error.Code
	}
	leaseBody := `{"worker":"w1","plan_hash":"x"}`

	if code, ec := post("", "/v1/lease", leaseBody); code != 401 || ec != httpapi.AuthMissing {
		t.Fatalf("no key: %d %s", code, ec)
	}
	if code, ec := post("stolen-key-123", "/v1/lease", leaseBody); code != 401 || ec != httpapi.AuthMissing {
		t.Fatalf("unknown key: %d %s", code, ec)
	}
	// A read-only key cannot drive the sweep...
	if code, ec := post("reader-key-123", "/v1/lease", leaseBody); code != 403 || ec != httpapi.AuthForbidden {
		t.Fatalf("ro key on lease: %d %s", code, ec)
	}
	// ...but may watch it.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
	req.Header.Set("Authorization", "Bearer reader-key-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ro key on status: %d", resp.StatusCode)
	}
	// A writer key reaches the state machine (and gets its typed refusal,
	// since no plan is registered).
	if code, ec := post("writer-key-123", "/v1/lease", leaseBody); code != 409 || ec != CodeNoPlan {
		t.Fatalf("rw key on lease: %d %s", code, ec)
	}
	// Malformed bodies get the typed envelope, not a panic or a bare 500.
	if code, ec := post("writer-key-123", "/v1/lease", "{not json"); code != 400 || ec != CodeBadJSON {
		t.Fatalf("bad json: %d %s", code, ec)
	}
	if code, ec := post("writer-key-123", "/v1/plan", `{"version":99,"tool":"t","fingerprint":"f","task_ids":["a"],"worker":"w"}`); code != 400 || ec != CodeInvalid {
		t.Fatalf("bad version: %d %s", code, ec)
	}
}

func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	leakcheck.Check(t)
	const tool, fp = "testsweep", "seed=3"
	tasks := e2eTasks(12)
	want := serialCheckpointBytes(t, tool, fp, tasks)
	dir := t.TempDir()

	c1, err := NewCoordinator(Config{DataDir: dir, RangeSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A stable listener whose backing coordinator can be swapped: the
	// worker sees the same URL across the "kill -9" and restart.
	var mu sync.Mutex
	cur := c1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := NewHandler(cur, nil, nil)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Let one worker make some progress, then kill and restart the
	// coordinator from the same journal mid-sweep.
	half := make(chan struct{})
	var once sync.Once
	slowTasks := make([]sched.Task[taskResult], len(tasks))
	copy(slowTasks, tasks)
	done := 0
	var dmu sync.Mutex
	for i := range slowTasks {
		run := slowTasks[i].Run
		slowTasks[i].Run = func(ctx context.Context) (taskResult, error) {
			dmu.Lock()
			done++
			if done == 6 {
				once.Do(func() { close(half) })
			}
			dmu.Unlock()
			return run(ctx)
		}
	}
	workerDone := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerConfig{
			Coordinator: srv.URL, Tool: tool, Fingerprint: fp,
			PollMax: 100 * time.Millisecond,
		}, slowTasks)
		workerDone <- err
	}()

	<-half
	mu.Lock()
	_ = c1.Close() // kill -9: appends were fsynced record-by-record
	c2, err := NewCoordinator(Config{DataDir: dir, RangeSize: 2})
	if err != nil {
		mu.Unlock()
		t.Fatal(err)
	}
	cur = c2
	mu.Unlock()
	defer c2.Close()

	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	cp, err := c2.MergedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("post-restart merged checkpoint differs from serial run")
	}
}

// TestWorkerStopsWhenCoordinatorExits: the coordinator process exits right
// after the final commit while a second worker is asleep on a wait hint.
// The committing worker must stop on the Done its commit response carries,
// and the sleeper, which wakes to a refused connection, must give up with
// ErrCoordinatorGone instead of retrying forever.
func TestWorkerStopsWhenCoordinatorExits(t *testing.T) {
	leakcheck.Check(t)
	const tool, fp = "testsweep", "seed=12"
	release := make(chan struct{})
	tasks := e2eTasks(2)
	run0 := tasks[0].Run
	tasks[0].Run = func(ctx context.Context) (taskResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return taskResult{}, ctx.Err()
		}
		return run0(ctx)
	}

	// One range: the first worker holds it, so the second only ever gets
	// wait hints.
	c, err := NewCoordinator(Config{DataDir: t.TempDir(), RangeSize: 2, WaitHint: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	api := NewHandler(c, nil, nil)
	sleeperWaiting := make(chan struct{})
	var waitOnce sync.Once
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		api.ServeHTTP(w, r)
		switch {
		case r.URL.Path == "/v1/lease" && strings.Contains(string(body), `"worker":"sleeper"`):
			waitOnce.Do(func() { close(sleeperWaiting) })
		case r.URL.Path == "/v1/result" && c.Status().Done:
			// Exit with the sweep: the response above is delivered, then
			// the listener and every connection close.
			go srv.Close()
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := make(chan error, 1)
	go func() {
		_, err := RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, Name: "committer", Tool: tool, Fingerprint: fp,
			PollMax: 20 * time.Millisecond,
		}, tasks)
		errs <- err
	}()
	for c.Status().Leased == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	sleeper := make(chan error, 1)
	go func() {
		_, err := RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL, Name: "sleeper", Tool: tool, Fingerprint: fp,
			PollMax: 200 * time.Millisecond,
		}, tasks)
		sleeper <- err
	}()
	<-sleeperWaiting
	close(release)

	if err := <-errs; err != nil {
		t.Fatalf("committing worker: %v", err)
	}
	start := time.Now()
	err = <-sleeper
	if !errors.Is(err, ErrCoordinatorGone) {
		t.Fatalf("sleeping worker returned %v, want ErrCoordinatorGone", err)
	}
	if bound := GoneAfterPolls * 200 * time.Millisecond; time.Since(start) > 2*bound {
		t.Fatalf("sleeping worker gave up after %v, bound %v", time.Since(start), bound)
	}
}
