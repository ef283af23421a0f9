package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fastConfig keeps retry delays far below test timeouts.
func fastConfig() Config {
	return Config{
		Workers:     4,
		QueueSize:   8,
		MaxRetries:  2,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		JitterSeed:  1,
	}
}

func TestRunnerRunsJobs(t *testing.T) {
	r := New(fastConfig())
	defer r.Stop()
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := r.SubmitWait(context.Background(), Job{ID: id, Run: func(context.Context) (any, error) {
			return id + "-value", nil
		}}); err != nil {
			t.Fatalf("SubmitWait(%s): %v", id, err)
		}
	}
	outs := r.Drain()
	if len(outs) != 10 {
		t.Fatalf("got %d outcomes, want 10", len(outs))
	}
	for _, o := range outs {
		if o.State != StateDone {
			t.Errorf("%s: state %v err %v, want done", o.ID, o.State, o.Err)
		}
		if o.Value != o.ID+"-value" {
			t.Errorf("%s: value %v", o.ID, o.Value)
		}
		if o.Attempts != 1 {
			t.Errorf("%s: %d attempts, want 1", o.ID, o.Attempts)
		}
	}
	st := r.Stats()
	if st.Done != 10 || st.Failed != 0 || st.Submitted != 10 {
		t.Errorf("stats %+v", st)
	}
}

func TestRetryBoundedAndSucceeds(t *testing.T) {
	r := New(fastConfig()) // MaxRetries=2 → up to 3 attempts
	defer r.Stop()
	var calls atomic.Int32
	if err := r.SubmitWait(context.Background(), Job{ID: "flaky", Run: func(context.Context) (any, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}); err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	if outs[0].State != StateDone || outs[0].Attempts != 3 {
		t.Fatalf("outcome %+v, want done after 3 attempts", outs[0])
	}
	if got := r.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	r := New(fastConfig())
	defer r.Stop()
	sentinel := errors.New("permanent")
	var calls atomic.Int32
	if err := r.SubmitWait(context.Background(), Job{ID: "doomed", Run: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, sentinel
	}}); err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	o := outs[0]
	if o.State != StateFailed || !errors.Is(o.Err, sentinel) {
		t.Fatalf("outcome %+v, want failed with sentinel", o)
	}
	if o.Attempts != 3 || calls.Load() != 3 {
		t.Errorf("attempts=%d calls=%d, want 3 (1 + MaxRetries)", o.Attempts, calls.Load())
	}
}

func TestPanicIsolation(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxRetries = 0
	r := New(cfg)
	defer r.Stop()
	if err := r.SubmitWait(context.Background(), Job{ID: "boom", Run: func(context.Context) (any, error) {
		panic("kaboom")
	}}); err != nil {
		t.Fatal(err)
	}
	// The pool survives the panic and keeps executing jobs.
	if err := r.SubmitWait(context.Background(), Job{ID: "after", Run: func(context.Context) (any, error) {
		return 42, nil
	}}); err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	byID := map[string]Outcome{}
	for _, o := range outs {
		byID[o.ID] = o
	}
	boom := byID["boom"]
	var pe *PanicError
	if boom.State != StateFailed || !errors.As(boom.Err, &pe) || !boom.Panicked {
		t.Fatalf("boom outcome %+v, want failed *PanicError", boom)
	}
	if pe.JobID != "boom" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError %+v", pe)
	}
	if byID["after"].State != StateDone {
		t.Errorf("pool did not survive the panic: %+v", byID["after"])
	}
}

func TestPanicErrorUnwraps(t *testing.T) {
	cause := errors.New("root cause")
	pe := &PanicError{JobID: "x", Value: cause}
	if !errors.Is(pe, cause) {
		t.Error("PanicError should unwrap an error panic value")
	}
}

func TestQueueFullSheds(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 1
	r := New(cfg)
	defer r.Stop()

	block := make(chan struct{})
	// Occupy the single worker, then fill the single queue slot.
	if err := r.Submit(Job{ID: "running", Run: func(context.Context) (any, error) {
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	// The worker may not have picked the job up yet; wait until it has.
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the blocking job")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Submit(Job{ID: "queued", Run: func(context.Context) (any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	err := r.Submit(Job{ID: "shed", Run: func(context.Context) (any, error) { return nil, nil }})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue: %v, want ErrQueueFull", err)
	}
	if got := r.Stats().Shed; got != 1 {
		t.Errorf("shed count = %d, want 1", got)
	}
	close(block)
	outs := r.Drain()
	if len(outs) != 2 {
		t.Errorf("%d outcomes, want 2 (shed job records none)", len(outs))
	}
}

func TestPerJobDeadline(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxRetries = 1
	cfg.JobTimeout = 2 * time.Millisecond
	r := New(cfg)
	defer r.Stop()
	if err := r.SubmitWait(context.Background(), Job{ID: "slow", Run: func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return "too late", nil
		}
	}}); err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	o := outs[0]
	if o.State != StateFailed || !errors.Is(o.Err, context.DeadlineExceeded) {
		t.Fatalf("outcome %+v, want failed with DeadlineExceeded", o)
	}
	if o.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (deadline failures retry)", o.Attempts)
	}
}

func TestStopInterruptsInFlightAndQueued(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 4
	r := New(cfg)

	started := make(chan struct{})
	if err := r.Submit(Job{ID: "inflight", Run: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Submit(Job{ID: fmt.Sprintf("queued-%d", i), Run: func(context.Context) (any, error) {
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	r.Stop()
	outs := r.Drain()
	if len(outs) != 4 {
		t.Fatalf("%d outcomes, want 4 — no accepted job may be lost on Stop", len(outs))
	}
	for _, o := range outs {
		if o.State != StateFailed || !errors.Is(o.Err, ErrInterrupted) {
			t.Errorf("%s: %v / %v, want interrupted failure", o.ID, o.State, o.Err)
		}
	}
	if err := r.Submit(Job{ID: "late", Run: func(context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Stop: %v, want ErrClosed", err)
	}
	if err := r.SubmitWait(context.Background(), Job{ID: "late2"}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitWait after Stop: %v, want ErrClosed", err)
	}
}

func TestSubmitWaitBackpressure(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 1
	r := New(cfg)
	defer r.Stop()
	// 20 jobs through a queue of 1: SubmitWait must block, not shed.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := r.SubmitWait(context.Background(), Job{ID: fmt.Sprintf("bp-%d", i), Run: func(context.Context) (any, error) {
				return nil, nil
			}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	if len(outs) != 20 {
		t.Fatalf("%d outcomes, want 20", len(outs))
	}
	if shed := r.Stats().Shed; shed != 0 {
		t.Errorf("SubmitWait shed %d jobs", shed)
	}
}

func TestSubmitWaitHonoursCallerContext(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 1
	r := New(cfg)
	defer r.Stop()
	block := make(chan struct{})
	defer close(block)
	r.Submit(Job{ID: "a", Run: func(context.Context) (any, error) { <-block; return nil, nil }})
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	r.Submit(Job{ID: "b", Run: func(context.Context) (any, error) { return nil, nil }})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- r.SubmitWait(ctx, Job{ID: "c", Run: func(context.Context) (any, error) { return nil, nil }})
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitWait under cancelled ctx: %v", err)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	cfg := Config{
		Workers:     1,
		QueueSize:   8,
		MaxRetries:  0,
		BaseBackoff: time.Microsecond,
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		Clock:       clk,
	}
	r := New(cfg)
	defer r.Stop()

	failing := func(context.Context) (any, error) { return nil, errors.New("model broken") }
	run := func(id string, fn func(context.Context) (any, error)) Outcome {
		if err := r.SubmitWait(context.Background(), Job{ID: id, Key: "silver", Run: fn}); err != nil {
			t.Fatal(err)
		}
		outs := r.Drain()
		return outs[len(outs)-1]
	}

	// Two consecutive failures trip the breaker...
	run("f1", failing)
	run("f2", failing)
	// ...so the next attempt is denied without running.
	var ran atomic.Bool
	o := run("denied", func(context.Context) (any, error) { ran.Store(true); return nil, nil })
	if o.State != StateFailed || !errors.Is(o.Err, ErrCircuitOpen) {
		t.Fatalf("outcome under open breaker: %+v", o)
	}
	if ran.Load() {
		t.Error("job ran under an open breaker")
	}
	// Another key is unaffected.
	if err := r.SubmitWait(context.Background(), Job{ID: "other", Key: "gold", Run: func(context.Context) (any, error) {
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	outs := r.Drain()
	if o := outs[len(outs)-1]; o.State != StateDone {
		t.Fatalf("other-key outcome %+v", o)
	}
	// After the cooldown the breaker half-opens: the probe runs, and its
	// success closes the circuit again.
	clk.Advance(2 * time.Minute)
	o = run("probe", func(context.Context) (any, error) { return "recovered", nil })
	if o.State != StateDone {
		t.Fatalf("half-open probe: %+v", o)
	}
	o = run("closed", func(context.Context) (any, error) { return nil, nil })
	if o.State != StateDone {
		t.Fatalf("after recovery: %+v", o)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	var a, b backoffState
	var prevA []time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		da := a.next(base, max, 42, "job", attempt)
		db := b.next(base, max, 42, "job", attempt)
		if da != db {
			t.Fatalf("attempt %d: %v != %v — backoff must be deterministic", attempt, da, db)
		}
		if da < base || da > max {
			t.Fatalf("attempt %d: %v outside [%v, %v]", attempt, da, base, max)
		}
		prevA = append(prevA, da)
	}
	// A different job ID draws a different schedule (jitter decorrelates).
	var c backoffState
	same := true
	for attempt := 1; attempt <= 6; attempt++ {
		if c.next(base, max, 42, "other-job", attempt) != prevA[attempt-1] {
			same = false
		}
	}
	if same {
		t.Error("two jobs drew identical backoff schedules; jitter is not decorrelating")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateQueued: "queued", StateRunning: "running", StateRetrying: "retrying",
		StateDone: "done", StateFailed: "failed", StateShed: "shed",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}
