package sched_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hef/internal/leakcheck"
	"hef/internal/sched"
)

// TestGracefulDrainOnSignal exercises the shutdown path the CLI tools wire
// up: a SIGTERM mid-sweep (delivered to this process, caught by
// signal.NotifyContext exactly as the sweep tools catch it) must start no
// new task, interrupt the in-flight ones, flush the checkpoint with every
// completed result, leak no goroutines, and return cleanly with the
// interruption reported.
func TestGracefulDrainOnSignal(t *testing.T) {
	leakcheck.Check(t)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	cp := filepath.Join(t.TempDir(), "drain.checkpoint.json")
	const total = 8
	// The first task sends the shutdown signal to our own process — the
	// real delivery path, not a synthetic cancel — and completes once it
	// has arrived.
	var started atomic.Int32
	var tasks []sched.Task[string]
	for i := 0; i < total; i++ {
		i := i
		tasks = append(tasks, sched.Task[string]{
			ID: fmt.Sprintf("drain-%d", i),
			Run: func(jctx context.Context) (string, error) {
				started.Add(1)
				if i == 0 {
					if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
						t.Errorf("self-SIGTERM: %v", err)
					}
					<-jctx.Done()
					return "value-0", nil
				}
				select {
				case <-jctx.Done():
					return "", jctx.Err()
				case <-time.After(time.Duration(i) * 2 * time.Millisecond):
					return fmt.Sprintf("value-%d", i), nil
				}
			},
		})
	}

	res, err := sched.RunSweep(ctx, sched.SweepConfig{
		Tool: "drain-test", Fingerprint: "fp",
		CheckpointPath: cp,
		Workers:        2,
	}, tasks)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep returned %v, want context.Canceled from the signal", err)
	}
	if !res.Interrupted {
		t.Fatal("sweep did not report the interruption")
	}
	if len(res.Results) == 0 || len(res.Results) == total {
		t.Fatalf("drain landed with %d/%d results; the signal should stop a mid-sweep run", len(res.Results), total)
	}
	// Every task that started either completed or failed; the rest never
	// started, and the resume below runs exactly those two groups.
	if got := len(res.Results) + len(res.Failed); got != int(started.Load()) {
		t.Errorf("results %d + failed %d = %d, but %d tasks started — tasks lost in the drain",
			len(res.Results), len(res.Failed), got, started.Load())
	}

	// The checkpoint was flushed and holds exactly the completed results.
	saved, err := sched.LoadCheckpoint(cp)
	if err != nil {
		t.Fatalf("checkpoint not flushed on drain: %v", err)
	}
	if err := saved.Match("drain-test", "fp"); err != nil {
		t.Fatal(err)
	}
	if len(saved.Done) != len(res.Results) {
		t.Errorf("checkpoint has %d tasks, sweep completed %d", len(saved.Done), len(res.Results))
	}
	for id, want := range res.Results {
		var got string
		if ok, err := saved.Get(id, &got); err != nil || !ok || got != want {
			t.Errorf("checkpoint %s: got %q ok=%v err=%v, want %q", id, got, ok, err, want)
		}
	}

	// A resumed sweep (fresh context — the old one stays cancelled) runs
	// exactly the remainder and completes.
	res2, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: "drain-test", Fingerprint: "fp",
		CheckpointPath: cp, ResumePath: cp,
		Workers: 2,
	}, tasks)
	if err != nil {
		t.Fatalf("resume after drain: %v", err)
	}
	if len(res2.Results) != total || res2.Executed != total-len(res.Results) {
		t.Fatalf("resume completed %d/%d, executing %d", len(res2.Results), total, res2.Executed)
	}

	// No goroutine leaks: the workers of both sweeps must all have exited —
	// asserted exactly by the leakcheck snapshot diff registered at the top
	// of the test.
	stop()
}

// TestDrainWithoutCheckpointStillClean covers the drain path when no
// checkpoint is configured: the sweep must still interrupt cleanly and
// account for every task that started.
func TestDrainWithoutCheckpointStillClean(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	var tasks []sched.Task[int]
	for i := 0; i < 6; i++ {
		i := i
		tasks = append(tasks, sched.Task[int]{
			ID: fmt.Sprintf("nc-%d", i),
			Run: func(jctx context.Context) (int, error) {
				started.Add(1)
				if i == 0 {
					cancel()
					return 0, nil
				}
				select {
				case <-jctx.Done():
					return 0, jctx.Err()
				case <-time.After(time.Duration(i) * time.Millisecond):
					return i, nil
				}
			},
		})
	}
	res, err := sched.RunSweep(ctx, sched.SweepConfig{Tool: "nc", Fingerprint: "fp", Workers: 2}, tasks)
	if !errors.Is(err, context.Canceled) || !res.Interrupted {
		t.Fatalf("err=%v interrupted=%v", err, res.Interrupted)
	}
	if got := len(res.Results) + len(res.Failed); got != int(started.Load()) || got == len(tasks) {
		t.Errorf("accounted %d of %d started tasks (of %d)", got, started.Load(), len(tasks))
	}
}
