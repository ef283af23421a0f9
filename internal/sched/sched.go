// Package sched is the supervision layer of the reproduction: a worker-pool
// job runner that executes HEF optimization, simulation, and sensitivity
// jobs with per-job deadlines, panic isolation, bounded retries with
// exponential backoff and decorrelated jitter, a per-key circuit breaker,
// and admission control that sheds load when the bounded queue saturates.
// On top of the runner, RunSweep adds crash-safe checkpoint/resume for long
// sweeps: results persist periodically as a versioned, byte-deterministic
// checkpoint, a cancelled context drains gracefully and flushes the
// checkpoint, and a resumed sweep skips completed jobs so the final report
// is byte-identical to an uninterrupted run.
//
// Job lifecycle (see DESIGN.md §7):
//
//	queued → running → done
//	               ↘ retrying → queued (bounded by MaxRetries)
//	               ↘ failed
//	submit ↛ queued: shed (ErrQueueFull) when the queue is full
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hef/internal/telemetry"
)

// defaultMetrics is the process-wide instrument set runners adopt when
// their Config leaves Metrics nil. The tools install it once at startup so
// every pool in the process — the sweep runner, the wave-search evaluator
// pools, the per-figure premeasure pools — composes onto the same gauges.
var defaultMetrics atomic.Pointer[telemetry.SchedMetrics]

// SetDefaultMetrics installs the instrument set future runners inherit.
// Pass nil to restore the uninstrumented default. Runners created before
// the call are unaffected.
func SetDefaultMetrics(m *telemetry.SchedMetrics) {
	defaultMetrics.Store(m)
}

// Typed sentinel errors of the runner; match with errors.Is.
var (
	// ErrQueueFull is returned by Submit when admission control sheds the
	// job because the bounded queue is saturated.
	ErrQueueFull = errors.New("sched: queue full, job shed")
	// ErrClosed is returned by Submit/SubmitWait after Stop.
	ErrClosed = errors.New("sched: runner closed")
	// ErrInterrupted marks a job outcome cut short by runner shutdown (a
	// drain or Stop) rather than by the job itself failing.
	ErrInterrupted = errors.New("sched: job interrupted by shutdown")
	// ErrCircuitOpen marks an attempt denied by an open circuit breaker;
	// the attempt is retried like any other failure, so the job survives
	// if the breaker half-opens within its retry budget.
	ErrCircuitOpen = errors.New("sched: circuit breaker open")
)

// PanicError is a panic recovered from inside a job's Run function: the job
// fails (and may retry), the worker and the process survive. It unwraps to
// the panic value when that value was itself an error.
type PanicError struct {
	// JobID is the job whose Run panicked.
	JobID string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %q panicked: %v", e.JobID, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// State is a job's position in the lifecycle state machine. Outcomes carry
// only terminal states (StateDone, StateFailed); the transient states are
// observable through Stats.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateRetrying
	StateDone
	StateFailed
	// StateShed is the admission-control rejection: the job never entered
	// the queue. Submit reports it synchronously as ErrQueueFull; no
	// Outcome is recorded.
	StateShed
)

// String renders the state for logs and reports.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateRetrying:
		return "retrying"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateShed:
		return "shed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Job is one unit of supervised work.
type Job struct {
	// ID identifies the job in outcomes and checkpoints; it must be unique
	// within a runner's lifetime and deterministic across runs for
	// checkpoint/resume to recognise completed work.
	ID string
	// Key groups jobs under one circuit breaker (e.g. the CPU model a
	// simulation runs on). Empty disables the breaker for this job.
	Key string
	// Run does the work. It must honour ctx (the runner cancels it on
	// shutdown and on the per-job deadline) and may panic: panics are
	// recovered into *PanicError failures.
	Run func(ctx context.Context) (any, error)
}

// Outcome is the terminal record of one accepted job.
type Outcome struct {
	// ID is the job's identifier and Key its breaker key.
	ID  string
	Key string
	// State is StateDone or StateFailed.
	State State
	// Value is Run's result when State is StateDone.
	Value any
	// Err is the last attempt's error when State is StateFailed. A job cut
	// short by shutdown wraps ErrInterrupted.
	Err error
	// Attempts counts Run invocations (and breaker denials), 1-based.
	Attempts int
	// Panicked is true when any attempt ended in a recovered panic.
	Panicked bool
}

// Stats is a snapshot of the runner's counters and gauges.
type Stats struct {
	// Submitted counts accepted jobs; Shed counts admission rejections.
	Submitted int
	Shed      int
	// Queued, Running, and Retrying are point-in-time gauges.
	Queued   int
	Running  int
	Retrying int
	// Done and Failed count terminal outcomes; Retries counts backoff
	// re-queues across all jobs.
	Done    int
	Failed  int
	Retries int
}

// Config tunes a Runner. The zero value is usable: 1 worker, a queue of 16,
// no retries, no breaker, no per-job deadline.
type Config struct {
	// Workers is the pool size (<= 0 selects 1).
	Workers int
	// QueueSize bounds the admission queue (<= 0 selects 16). Submit sheds
	// (ErrQueueFull) when the queue is full; SubmitWait blocks instead.
	QueueSize int
	// MaxRetries caps re-executions after the first attempt (0 = fail on
	// the first error).
	MaxRetries int
	// BaseBackoff and MaxBackoff bound the exponential backoff with
	// decorrelated jitter between retries (defaults 10ms and 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed makes the backoff jitter deterministic; the draw for a
	// retry hashes (JitterSeed, job ID, attempt).
	JitterSeed uint64
	// JobTimeout is the per-attempt deadline (0 = none). A timed-out
	// attempt fails with context.DeadlineExceeded and retries normally.
	JobTimeout time.Duration
	// Breaker configures the per-Key circuit breaker (zero disables).
	Breaker BreakerConfig
	// Clock abstracts time for tests (nil selects the real clock).
	Clock Clock
	// OnOutcome, when non-nil, observes every terminal outcome. Calls are
	// serialized; the callback may call Submit but must not call Drain or
	// Stop.
	OnOutcome func(Outcome)
	// Metrics receives lifecycle events for live observability. Nil adopts
	// the process default (SetDefaultMetrics); telemetry.SchedMetrics is
	// nil-receiver-safe, so with neither set every bump is one branch.
	// Metrics never influence scheduling, results, or checkpoints.
	Metrics *telemetry.SchedMetrics
	// Tracer, when non-nil, records a queue-wait span and a run span per
	// job attempt. Unlike Metrics it is never defaulted process-wide: span
	// volume is per-job, so only the top-level sweep runner sets it.
	Tracer *telemetry.Tracer
}

type task struct {
	job        Job
	attempt    int
	backoff    backoffState
	paniced    bool
	enqueuedAt time.Time // when the task last entered the queue, for the wait span
}

// Runner is a supervised worker pool. Create with New, feed with
// Submit/SubmitWait, wait with Drain, and release with Stop.
type Runner struct {
	cfg   Config
	clock Clock

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *task

	mu         sync.Mutex
	cond       *sync.Cond
	stats      Stats
	pending    int // accepted jobs not yet terminal
	submitting int // SubmitWait calls blocked on the queue
	outcomes   []Outcome
	breakers   *Breakers
	stopped    bool

	cbMu    sync.Mutex // serializes OnOutcome callbacks
	wg      sync.WaitGroup
	retryWG sync.WaitGroup
}

// New starts a runner with cfg's worker pool.
func New(cfg Config) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 16
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	clk := cfg.Clock
	if clk == nil {
		clk = RealClock{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = defaultMetrics.Load()
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		cfg:      cfg,
		clock:    clk,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *task, cfg.QueueSize),
		breakers: NewBreakers(cfg.Breaker),
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r
}

// Submit offers a job with admission control: when the queue is full the
// job is shed and ErrQueueFull returned — nothing is recorded beyond the
// Shed counter. After Stop it returns ErrClosed.
func (r *Runner) Submit(j Job) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return ErrClosed
	}
	t := &task{job: j, attempt: 1, enqueuedAt: r.clock.Now()}
	select {
	case r.queue <- t:
		r.stats.Submitted++
		r.stats.Queued++
		r.pending++
		r.cfg.Metrics.OnSubmit()
		return nil
	default:
		r.stats.Shed++
		r.cfg.Metrics.OnShed()
		return fmt.Errorf("sched: job %q: %w", j.ID, ErrQueueFull)
	}
}

// SubmitWait is Submit with backpressure instead of shedding: it blocks
// until a queue slot frees, ctx is done, or the runner stops. Sweeps use it
// so their own jobs are never shed.
func (r *Runner) SubmitWait(ctx context.Context, j Job) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrClosed
	}
	r.pending++
	r.submitting++
	r.mu.Unlock()

	t := &task{job: j, attempt: 1, enqueuedAt: r.clock.Now()}
	var err error
	select {
	case r.queue <- t:
	case <-ctx.Done():
		err = ctx.Err()
	case <-r.ctx.Done():
		err = ErrClosed
	}

	r.mu.Lock()
	r.submitting--
	if err == nil {
		r.stats.Submitted++
		r.stats.Queued++
		r.cfg.Metrics.OnSubmit()
	} else {
		r.pending--
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return err
}

// Drain blocks until every accepted job has a terminal outcome and returns
// the outcomes in completion order. It does not stop the workers; call Stop
// (possibly concurrently, to interrupt in-flight jobs) to release them.
func (r *Runner) Drain() []Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.pending > 0 {
		r.cond.Wait()
	}
	out := make([]Outcome, len(r.outcomes))
	copy(out, r.outcomes)
	return out
}

// Stop cancels in-flight jobs, waits for the workers and retry timers to
// exit, and records an ErrInterrupted failure for every job still queued,
// so no accepted job is ever lost. Safe to call more than once.
func (r *Runner) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.stopped = true
	r.mu.Unlock()

	r.cancel()
	r.wg.Wait()      // workers finish their in-flight attempt
	r.retryWG.Wait() // retry timers resolve against the cancelled context

	// Blocked SubmitWait calls resolve against the cancelled context too;
	// wait them out so the queue stops growing, then flush what is left.
	r.mu.Lock()
	for r.submitting > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
	for {
		select {
		case t := <-r.queue:
			r.finish(t, Outcome{
				ID: t.job.ID, Key: t.job.Key, State: StateFailed,
				Err: fmt.Errorf("sched: job %q never started: %w", t.job.ID, ErrInterrupted), Attempts: t.attempt - 1, Panicked: t.paniced,
			}, true)
		default:
			return
		}
	}
}

// Outcomes returns a snapshot of the terminal outcomes so far, in
// completion order.
func (r *Runner) Outcomes() []Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Outcome, len(r.outcomes))
	copy(out, r.outcomes)
	return out
}

// Stats returns a snapshot of the counters and gauges.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			return
		case t := <-r.queue:
			r.execute(t)
		}
	}
}

// execute runs one attempt of a task and routes the result: success,
// retry-with-backoff, or terminal failure.
func (r *Runner) execute(t *task) {
	if r.ctx.Err() != nil {
		// The runner is shutting down: don't start new attempts; resolve
		// the job as interrupted so it is re-run on resume, not lost.
		r.finish(t, Outcome{
			ID: t.job.ID, Key: t.job.Key, State: StateFailed,
			Err: fmt.Errorf("sched: job %q not started: %w", t.job.ID, ErrInterrupted), Attempts: t.attempt - 1, Panicked: t.paniced,
		}, true)
		return
	}
	r.mu.Lock()
	r.stats.Queued--
	r.stats.Running++
	r.mu.Unlock()
	// An empty Key opts the job out of the breaker.
	keyed := t.job.Key != "" && r.cfg.Breaker.Threshold > 0
	r.cfg.Metrics.OnStart()
	started := r.clock.Now()
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Record("queue", t.job.ID, t.enqueuedAt, started.Sub(t.enqueuedAt))
	}

	var val any
	var err error
	allowed := true
	if keyed {
		allowed, _ = r.breakers.Allow(t.job.Key, started)
	}
	if !allowed {
		err = fmt.Errorf("sched: job %q key %q: %w", t.job.ID, t.job.Key, ErrCircuitOpen)
		r.cfg.Metrics.OnBreakerDenial()
	} else {
		val, err = r.runAttempt(t)
		if keyed {
			if err == nil {
				r.breakers.Success(t.job.Key)
			} else if r.ctx.Err() == nil {
				// Shutdown cancellations say nothing about the key's
				// health, so they don't count against the breaker.
				r.breakers.Failure(t.job.Key, r.clock.Now())
			}
		}
	}
	if keyed && r.cfg.Metrics != nil {
		r.cfg.Metrics.SetBreakersOpen(r.breakers.OpenCount())
	}

	ended := r.clock.Now()
	r.mu.Lock()
	r.stats.Running--
	r.mu.Unlock()
	r.cfg.Metrics.OnAttemptEnd(ended.Sub(started).Seconds())
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Record("run", t.job.ID, started, ended.Sub(started))
	}

	switch {
	case err == nil:
		r.finish(t, Outcome{ID: t.job.ID, Key: t.job.Key, State: StateDone,
			Value: val, Attempts: t.attempt, Panicked: t.paniced}, false)
	case r.ctx.Err() != nil:
		r.finish(t, Outcome{ID: t.job.ID, Key: t.job.Key, State: StateFailed,
			Err: fmt.Errorf("%w: %w", ErrInterrupted, err), Attempts: t.attempt, Panicked: t.paniced}, false)
	case t.attempt <= r.cfg.MaxRetries:
		r.retry(t, err)
	default:
		r.finish(t, Outcome{ID: t.job.ID, Key: t.job.Key, State: StateFailed,
			Err: err, Attempts: t.attempt, Panicked: t.paniced}, false)
	}
}

// runAttempt invokes the job under the per-attempt deadline with panic
// recovery.
func (r *Runner) runAttempt(t *task) (val any, err error) {
	ctx := r.ctx
	if r.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.JobTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			t.paniced = true
			err = &PanicError{JobID: t.job.ID, Value: rec, Stack: debug.Stack()}
		}
	}()
	return t.job.Run(ctx)
}

// retry schedules the task's next attempt after a backoff delay. The
// re-queue bypasses admission control (retries are never shed); a shutdown
// during the wait resolves the job as interrupted.
func (r *Runner) retry(t *task, cause error) {
	delay := t.backoff.next(r.cfg.BaseBackoff, r.cfg.MaxBackoff, r.cfg.JitterSeed, t.job.ID, t.attempt)
	t.attempt++
	r.mu.Lock()
	r.stats.Retries++
	r.stats.Retrying++
	r.mu.Unlock()
	r.cfg.Metrics.OnRetry()
	r.retryWG.Add(1)
	go func() {
		defer r.retryWG.Done()
		interrupted := func() {
			r.mu.Lock()
			r.stats.Retrying--
			r.mu.Unlock()
			r.cfg.Metrics.OnRetryResolved(false)
			r.finish(t, Outcome{ID: t.job.ID, Key: t.job.Key, State: StateFailed,
				Err:      fmt.Errorf("%w: retry abandoned after: %w", ErrInterrupted, cause),
				Attempts: t.attempt - 1, Panicked: t.paniced}, false)
		}
		select {
		case <-r.clock.After(delay):
		case <-r.ctx.Done():
			interrupted()
			return
		}
		t.enqueuedAt = r.clock.Now()
		select {
		case r.queue <- t:
			r.mu.Lock()
			r.stats.Retrying--
			r.stats.Queued++
			r.mu.Unlock()
			r.cfg.Metrics.OnRetryResolved(true)
		case <-r.ctx.Done():
			interrupted()
		}
	}()
}

// finish records a terminal outcome. queuedGauge compensates the Queued
// gauge for tasks flushed straight out of the queue by Stop. The OnOutcome
// callback completes before the job counts as terminal, so Drain returning
// guarantees every callback has run.
func (r *Runner) finish(t *task, o Outcome, queuedGauge bool) {
	r.mu.Lock()
	if queuedGauge {
		r.stats.Queued--
		if m := r.cfg.Metrics; m != nil {
			m.QueueDepth.Add(-1)
		}
	}
	switch o.State {
	case StateDone:
		r.stats.Done++
	default:
		r.stats.Failed++
	}
	r.outcomes = append(r.outcomes, o)
	cb := r.cfg.OnOutcome
	r.mu.Unlock()
	r.cfg.Metrics.OnOutcome(o.State == StateDone)
	if cb != nil {
		r.cbMu.Lock()
		cb(o)
		r.cbMu.Unlock()
	}
	r.mu.Lock()
	r.pending--
	r.cond.Broadcast()
	r.mu.Unlock()
}
