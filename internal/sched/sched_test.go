package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepRunsEveryTaskOnce: at every worker count each task runs exactly
// once and its value lands under its ID.
func TestSweepRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var calls sync.Map
		var tasks []Task[string]
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("task-%d", i)
			tasks = append(tasks, Task[string]{ID: id, Run: func(context.Context) (string, error) {
				n, _ := calls.LoadOrStore(id, new(atomic.Int32))
				n.(*atomic.Int32).Add(1)
				return id + "-value", nil
			}})
		}
		res, err := RunSweep(context.Background(), SweepConfig{Workers: workers}, tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Executed != 10 || len(res.Results) != 10 || len(res.Failed) != 0 {
			t.Fatalf("workers=%d: executed %d, %d results, %d failed", workers, res.Executed, len(res.Results), len(res.Failed))
		}
		for _, task := range tasks {
			if v := res.Results[task.ID]; v != task.ID+"-value" {
				t.Errorf("workers=%d: %s = %q", workers, task.ID, v)
			}
			if n, _ := calls.Load(task.ID); n.(*atomic.Int32).Load() != 1 {
				t.Errorf("workers=%d: %s ran %d times, want 1", workers, task.ID, n.(*atomic.Int32).Load())
			}
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tasks := []Task[int]{
			{ID: "boom", Run: func(context.Context) (int, error) { panic("kaboom") }},
			{ID: "after", Run: func(context.Context) (int, error) { return 42, nil }},
		}
		res, err := RunSweep(context.Background(), SweepConfig{Workers: workers}, tasks)
		if !errors.Is(err, ErrJobsFailed) {
			t.Fatalf("workers=%d: err %v, want ErrJobsFailed", workers, err)
		}
		var pe *PanicError
		if len(res.Failed) != 1 || res.Failed[0].ID != "boom" || !errors.As(res.Failed[0].Err, &pe) {
			t.Fatalf("workers=%d: failed %+v, want boom as a *PanicError", workers, res.Failed)
		}
		if pe.TaskID != "boom" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Errorf("PanicError %+v", pe)
		}
		// The loop survives the panic and keeps running tasks.
		if res.Results["after"] != 42 {
			t.Errorf("workers=%d: the sweep did not survive the panic: %v", workers, res.Results)
		}
	}
}

func TestPanicErrorUnwraps(t *testing.T) {
	cause := errors.New("root cause")
	pe := &PanicError{TaskID: "x", Value: cause}
	if !errors.Is(pe, cause) {
		t.Error("PanicError should unwrap an error panic value")
	}
}

// TestCancelStopsNewTasks: once ctx is done no new task starts, the running
// task sees the cancellation through the ctx it was handed, and the tasks
// that never started are in neither Results nor Failed.
func TestCancelStopsNewTasks(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		tasks := []Task[int]{{ID: "inflight", Run: func(tctx context.Context) (int, error) {
			started.Add(1)
			cancel()
			<-tctx.Done()
			return 0, tctx.Err()
		}}}
		// A second worker may pick up one later task before the first task
		// cancels, and holds it until then; no task starts after.
		for i := 0; i < 3; i++ {
			tasks = append(tasks, Task[int]{ID: fmt.Sprintf("later-%d", i), Run: func(context.Context) (int, error) {
				started.Add(1)
				<-ctx.Done()
				return 1, nil
			}})
		}
		res, err := RunSweep(ctx, SweepConfig{Workers: workers}, tasks)
		if !errors.Is(err, context.Canceled) || !res.Interrupted {
			t.Fatalf("workers=%d: err=%v interrupted=%v", workers, err, res.Interrupted)
		}
		if len(res.Failed) != 1 || res.Failed[0].ID != "inflight" || !errors.Is(res.Failed[0].Err, context.Canceled) {
			t.Errorf("workers=%d: failed %+v, want the in-flight task cancelled", workers, res.Failed)
		}
		if got := int(started.Load()); got > workers || len(res.Results) != got-1 {
			t.Errorf("workers=%d: %d tasks started and %d completed, want at most %d started and all but one completed",
				workers, got, len(res.Results), workers)
		}
	}
}

// TestBreakerTripsAndRecovers: consecutive failures trip a key's circuit,
// other keys are unaffected, and after the cooldown one probe's success
// closes the circuit again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreakers(BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	allow := func(key string) bool {
		ok, _ := b.Allow(key, clk.Now())
		return ok
	}

	b.Failure("silver", clk.Now())
	if !allow("silver") {
		t.Fatal("one failure below the threshold denied the key")
	}
	b.Failure("silver", clk.Now())
	if allow("silver") {
		t.Fatal("two consecutive failures did not trip the breaker")
	}
	if !allow("gold") {
		t.Fatal("an open circuit on silver denied gold")
	}
	clk.Advance(2 * time.Minute)
	if !allow("silver") {
		t.Fatal("the half-open breaker denied its probe")
	}
	if allow("silver") {
		t.Fatal("the half-open breaker admitted a second attempt beside the probe")
	}
	b.Success("silver")
	if !allow("silver") || !allow("silver") {
		t.Fatal("a successful probe did not close the circuit")
	}
}
