package hefd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hef/internal/obs"
	"hef/internal/sched"
)

func TestShedBackoffDoublesAndResets(t *testing.T) {
	b := shedBackoff{base: 100 * time.Millisecond, max: 5 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second, // capped
	}
	for i, w := range want {
		if got := b.next(); got != w {
			t.Fatalf("shed %d: retry-after %v, want %v", i, got, w)
		}
	}
	b.reset()
	if got := b.next(); got != 100*time.Millisecond {
		t.Fatalf("after reset: %v, want base again", got)
	}
}

func TestShedBackoffNeverOverflows(t *testing.T) {
	b := shedBackoff{base: time.Second, max: 30 * time.Second}
	for i := 0; i < 100; i++ {
		if d := b.next(); d <= 0 || d > 30*time.Second {
			t.Fatalf("shed %d: retry-after %v outside (0, 30s]", i, d)
		}
	}
}

// The tenant-breaker scenarios run through Manager submissions on a fake
// clock, so they pin the admission outcomes a client sees — shed code and
// Retry-After — whatever breaker implementation sits behind Submit. Each
// job's operator decides its fate: opOK succeeds, opFail fails, and
// opBlock runs until the harness unblocks it (then succeeds) or it is
// cancelled.
const (
	opOK    = "murmur"
	opFail  = "crc64"
	opBlock = "probe"
)

type breakerHarness struct {
	t       *testing.T
	m       *Manager
	clock   *sched.FakeClock
	unblock chan struct{}
}

func newBreakerHarness(t *testing.T, cfg sched.BreakerConfig) *breakerHarness {
	h := &breakerHarness{t: t, clock: sched.NewFakeClock(time.Unix(100, 0)), unblock: make(chan struct{})}
	h.m = newTestManager(t, Config{
		Breaker: cfg, Clock: h.clock,
		runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
			switch op {
			case opFail:
				return nil, errors.New("poisoned spec")
			case opBlock:
				select {
				case <-h.unblock:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return stubRun(ctx, spec, op)
		},
	})
	t.Cleanup(func() { h.release() })
	return h
}

// release lets every blocked job (and every later one) finish.
func (h *breakerHarness) release() {
	select {
	case <-h.unblock:
	default:
		close(h.unblock)
	}
}

// admit submits one job and requires admission.
func (h *breakerHarness) admit(tenant, op string) JobView {
	h.t.Helper()
	v, err := h.m.Submit(JobSpec{Tenant: tenant, Ops: []string{op}})
	if err != nil {
		h.t.Fatalf("%s/%s refused: %v", tenant, op, err)
	}
	return v
}

// run admits one job and waits for its verdict.
func (h *breakerHarness) run(tenant, op string) {
	h.t.Helper()
	want := StateDone
	if op == opFail {
		want = StateFailed
	}
	waitState(h.t, h.m, h.admit(tenant, op).ID, want)
}

// shed submits one job, requires a breaker shed, and returns its
// Retry-After.
func (h *breakerHarness) shed(tenant string) time.Duration {
	h.t.Helper()
	var shed *ShedError
	if _, err := h.m.Submit(JobSpec{Tenant: tenant, Ops: []string{opOK}}); !errors.As(err, &shed) || shed.Code != ShedBreakerOpen {
		h.t.Fatalf("%s: %v, want %s", tenant, err, ShedBreakerOpen)
	}
	return shed.RetryAfter
}

func TestTenantBreakerDisabledByZeroThreshold(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{})
	for i := 0; i < 10; i++ {
		h.run("a", opFail)
	}
	h.run("a", opOK)
}

func TestTenantBreakerOpensAfterThreshold(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})
	h.run("a", opFail)
	h.run("a", opFail)
	h.run("a", opFail) // admitted below the threshold; its failure trips it
	h.clock.Advance(4 * time.Second)
	if wait := h.shed("a"); wait != 6*time.Second {
		t.Fatalf("retry-after = %v, want remaining cooldown 6s", wait)
	}
	// Another tenant is unaffected.
	h.run("b", opOK)
}

func TestTenantBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{Threshold: 1, Cooldown: 10 * time.Second})
	h.run("a", opFail)
	h.clock.Advance(11 * time.Second)
	probe := h.admit("a", opBlock)
	// A second submission while the probe is in flight waits a full
	// cooldown.
	if wait := h.shed("a"); wait != 10*time.Second {
		t.Fatalf("retry-after during the probe = %v, want 10s", wait)
	}
	// Probe success closes the circuit fully.
	h.release()
	waitState(t, h.m, probe.ID, StateDone)
	for i := 0; i < 3; i++ {
		h.run("a", opOK)
	}
}

func TestTenantBreakerFailedProbeReopens(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{Threshold: 1, Cooldown: 10 * time.Second})
	h.run("a", opFail)
	h.clock.Advance(11 * time.Second)
	h.run("a", opFail) // the probe, failing
	// Re-opened for a fresh cooldown from the probe's failure.
	h.clock.Advance(5 * time.Second)
	if wait := h.shed("a"); wait != 5*time.Second {
		t.Fatalf("after failed probe: retry-after %v, want 5s", wait)
	}
	h.clock.Advance(6 * time.Second)
	h.run("a", opOK)
}

func TestTenantBreakerReleaseFreesTheProbeSlot(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{Threshold: 1, Cooldown: 10 * time.Second})
	h.run("a", opFail)
	h.clock.Advance(11 * time.Second)
	probe := h.admit("a", opBlock)
	waitState(t, h.m, probe.ID, StateRunning)
	// The probe job was cancelled: neutral, so the slot frees and the next
	// submission becomes the new probe instead of waiting out a phantom
	// cooldown.
	if _, err := h.m.Cancel(probe.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, h.m, probe.ID, StateCancelled)
	h.run("a", opOK)
}

func TestTenantBreakerConcurrentHalfOpenAdmitsExactlyOne(t *testing.T) {
	h := newBreakerHarness(t, sched.BreakerConfig{Threshold: 1, Cooldown: time.Second})
	h.run("a", opFail)
	h.clock.Advance(2 * time.Second)

	var wg sync.WaitGroup
	admitted := make(chan bool, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := h.m.Submit(JobSpec{Tenant: "a", Ops: []string{opBlock}})
			admitted <- err == nil
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for ok := range admitted {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d concurrent submissions admitted in half-open, want exactly 1", n)
	}
}
