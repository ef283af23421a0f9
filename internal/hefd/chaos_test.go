package hefd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hef/internal/leakcheck"
	"hef/internal/obs"
	"hef/internal/sched"
)

// nThousand is the concurrent-submission scale of the load test: enough to
// prove the bounded-queue claim is structural, small enough for CI.
const nThousand = 2000

// Thousands of concurrent submissions against a small queue: admission
// must bound the accepted set at queue capacity, shed everyone else with a
// typed retryable error, lose none of the accepted jobs, and return the
// process to its starting goroutine population.
func TestLoadThousandsOfSubmissionsBoundedQueue(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	const queueSize = 32
	m := newTestManager(t, Config{Workers: 4, QueueSize: queueSize, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		select {
		case <-release:
			return stubRun(ctx, spec, op)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		shed     atomic.Int64
	)
	for i := 0; i < nThousand; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
			if err == nil {
				mu.Lock()
				accepted = append(accepted, v.ID)
				mu.Unlock()
				return
			}
			var se *ShedError
			if !errors.As(err, &se) || se.Code != ShedQueueFull {
				t.Errorf("unexpected refusal: %v", err)
				return
			}
			if se.RetryAfter <= 0 {
				t.Error("shed without Retry-After")
			}
			shed.Add(1)
		}()
	}
	wg.Wait()

	if len(accepted) == 0 || len(accepted) > queueSize {
		t.Fatalf("accepted %d jobs with queue size %d", len(accepted), queueSize)
	}
	if int(shed.Load())+len(accepted) != nThousand {
		t.Fatalf("accounting hole: %d accepted + %d shed != %d", len(accepted), shed.Load(), nThousand)
	}
	c := m.Counts()
	if c.Accepted != len(accepted) || c.Shed != int(shed.Load()) {
		t.Fatalf("counters disagree with observations: %+v", c)
	}

	// Zero lost accepted jobs: every single one finishes and serves its
	// report once the overload passes.
	close(release)
	for _, id := range accepted {
		waitState(t, m, id, StateDone)
		if _, err := m.Report(id); err != nil {
			t.Fatalf("accepted job %s has no report: %v", id, err)
		}
	}
	// Admission recovered with the backlog gone.
	if _, err := m.Submit(JobSpec{Ops: []string{"crc64"}}); err != nil {
		t.Fatalf("post-load submit refused: %v", err)
	}
}

// A seeded storm of mixed-fate jobs across tenants, with quotas and
// breakers live: whatever the interleaving, every accepted job reaches a
// terminal state, reports exist exactly for the done ones, and shutdown
// leaks nothing.
func TestChaosMixedTenantsSeededOutcomes(t *testing.T) {
	leakcheck.Check(t)
	// Deterministic per-(tenant,op) fate from a seeded hash — no RNG state
	// shared across goroutines, same fates every run.
	fate := func(tenant, op string) uint32 {
		h := fnv.New32a()
		fmt.Fprintf(h, "seed42|%s|%s", tenant, op)
		return h.Sum32()
	}
	m := newTestManager(t, Config{
		Workers:   4,
		QueueSize: 64,
		Quota:     QuotaConfig{Rate: 1000, Burst: 40},
		Breaker:   sched.BreakerConfig{Threshold: 8, Cooldown: time.Minute},
		runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
			switch fate(spec.Tenant, op) % 4 {
			case 0:
				return nil, errors.New("chaotic failure")
			case 1:
				time.Sleep(time.Millisecond)
			}
			return stubRun(ctx, spec, op)
		},
	})

	tenants := []string{"t0", "t1", "t2"}
	ops := [][]string{{"murmur"}, {"crc64", "probe"}, {"filter"}, {"agg", "bloom"}}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
	)
	for i := 0; i < 200; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Submit(JobSpec{Tenant: tenants[i%len(tenants)], Ops: ops[i%len(ops)]})
			if err != nil {
				var se *ShedError
				if !errors.As(err, &se) {
					t.Errorf("untyped refusal: %v", err)
				}
				return
			}
			mu.Lock()
			accepted = append(accepted, v.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for _, id := range accepted {
		for {
			v, err := m.Get(id)
			if err != nil {
				t.Fatalf("accepted job %s vanished: %v", id, err)
			}
			if v.State.Terminal() {
				// Reports exist exactly for done jobs.
				_, rerr := m.Report(id)
				if v.State == StateDone && rerr != nil {
					t.Fatalf("done job %s without report: %v", id, rerr)
				}
				if v.State != StateDone && !errors.Is(rerr, ErrReportNotReady) {
					t.Fatalf("%s job %s served a report", v.State, id)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, v.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// Drain under load: a manager with running and queued jobs closes
// gracefully — runners park, queued jobs park, nothing hangs, and the
// goroutine population returns to baseline (the satellite leak assertion
// on the drain path).
func TestDrainUnderLoadLeaksNothing(t *testing.T) {
	leakcheck.Check(t)
	m := newTestManager(t, Config{Workers: 2, QueueSize: 16, runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	var ids []string
	for i := 0; i < 8; i++ {
		v, err := m.Submit(JobSpec{Ops: []string{"murmur"}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain hung with blocked jobs")
	}
	for _, id := range ids {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateParked {
			t.Fatalf("job %s is %s after drain, want parked", id, v.State)
		}
	}
}
