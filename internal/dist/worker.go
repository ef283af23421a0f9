package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"hef/internal/httpapi"
	"hef/internal/sched"
	"hef/internal/telemetry"
)

// WorkerConfig shapes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:9931).
	Coordinator string
	// APIKey authenticates to the coordinator ("" when auth is off).
	APIKey string
	// Name identifies this worker in coordinator logs and lease state
	// ("" selects "worker").
	Name string

	// Tool and Fingerprint identify the sweep; they must match the
	// coordinator's registered plan or registration is refused.
	Tool        string
	Fingerprint string

	// Workers is how many tasks of a leased range run at once (<= 0
	// selects 1).
	Workers int

	// Client is the HTTP client (nil selects a 30s-timeout default).
	Client *http.Client
	// Clock abstracts time (nil selects the real clock).
	Clock sched.Clock
	// PollMax caps wait and retry backoff sleeps (<= 0 selects 2s). A
	// coordinator unreachable for GoneAfterPolls×PollMax is given up on
	// with ErrCoordinatorGone.
	PollMax time.Duration
	// LogW receives the worker's operational log (nil discards).
	LogW io.Writer

	// Metrics and Tracer flow into the local sweep runs, so a worker's
	// /metrics shows the same sweep series a single-process run would.
	Metrics *telemetry.SweepMetrics
	Tracer  *telemetry.Tracer
}

// GoneAfterPolls scales PollMax into the bound after which a worker stops
// retrying an unreachable coordinator. With the 2s default PollMax that is
// a minute: long enough to ride out a coordinator kill -9 and restart on
// the same data directory, short enough that a worker whose coordinator
// exited for good does not retry forever.
const GoneAfterPolls = 30

// ErrCoordinatorGone is returned by RunWorker once the coordinator has
// answered no request for GoneAfterPolls×PollMax. Typed refusals count as
// answers; only transport failures (refused connections, timeouts, torn
// responses) run the clock.
var ErrCoordinatorGone = errors.New("dist: coordinator gone")

// WorkerStats summarizes one worker's participation in a sweep.
type WorkerStats struct {
	// Ranges and Tasks count work this worker completed and committed
	// (duplicates included — the work really ran here).
	Ranges int
	Tasks  int
	// Duplicates counts commits the coordinator deduped (another worker got
	// there first — the at-least-once window, not an error).
	Duplicates int
	// LapsedLeases counts leases that expired under this worker while it
	// kept computing.
	LapsedLeases int
	// Reconnects counts transport-level retries against the coordinator.
	Reconnects int
	// Failures counts ranges this worker reported as failed.
	Failures int
}

func (c *WorkerConfig) withDefaults() WorkerConfig {
	out := *c
	if out.Name == "" {
		out.Name = "worker"
	}
	if out.Workers <= 0 {
		out.Workers = 1
	}
	if out.Client == nil {
		out.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if out.Clock == nil {
		out.Clock = sched.RealClock{}
	}
	if out.PollMax <= 0 {
		out.PollMax = 2 * time.Second
	}
	if out.LogW == nil {
		out.LogW = io.Discard
	}
	return out
}

// client is the coordinator's HTTP client: typed envelope errors come back
// as *ProtoError, anything else (refused connection, timeout, torn
// response) as a plain error the caller treats as transient.
type client struct {
	base string
	key  string
	hc   *http.Client
}

func (cl *client) post(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return errProto(http.StatusBadRequest, CodeBadJSON, "marshal request: %v", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return errProto(http.StatusBadRequest, CodeInvalid, "build request: %v", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if cl.key != "" {
		hr.Header.Set("Authorization", "Bearer "+cl.key)
	}
	resp, err := cl.hc.Do(hr)
	if err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("dist: %s: read response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		if e, ok := httpapi.DecodeError(data); ok {
			return &ProtoError{Status: resp.StatusCode, Code: e.Code, Message: e.Message}
		}
		return fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("dist: %s: decode response: %w", path, err)
		}
	}
	return nil
}

// fatalCode reports whether a typed refusal should stop the worker rather
// than be retried: protocol disagreements and auth refusals never heal by
// waiting, and a determinism violation or failed sweep is terminal by
// design.
func fatalCode(code string) bool {
	switch code {
	case CodePlanMismatch, CodeInvalid, CodeBadJSON,
		CodeSweepFailed, CodeDeterminism,
		httpapi.AuthMissing, httpapi.AuthForbidden:
		return true
	}
	return false
}

// worker is one RunWorker invocation's state.
type worker[T any] struct {
	cfg      WorkerConfig
	cl       *client
	logf     *log.Logger
	tasks    []sched.Task[T]
	ids      []string
	planHash string
	stats    *WorkerStats
	// downSince is when the current run of transport failures began (zero
	// while the coordinator answers).
	downSince time.Time
}

// RunWorker participates in a distributed sweep until it is complete: it
// registers the plan derived from its own flags (so a misconfigured worker
// is refused, not mixed in), then leases ranges, runs them on a local
// sched.RunSweep loop, heartbeats while computing, and commits marshalled
// results. Transport errors back off and retry — commits are idempotent on
// the coordinator, so at-least-once delivery is safe. It returns nil when a
// commit or lease response reports the sweep done, and an error when the
// sweep fails, ctx is cancelled, or the coordinator stays unreachable past
// the GoneAfterPolls bound (ErrCoordinatorGone).
func RunWorker[T any](ctx context.Context, cfg WorkerConfig, tasks []sched.Task[T]) (*WorkerStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker requires a coordinator URL")
	}
	ids, err := sched.TaskIDs(tasks)
	if err != nil {
		return nil, err
	}
	w := &worker[T]{
		cfg:   cfg,
		cl:    &client{base: cfg.Coordinator, key: cfg.APIKey, hc: cfg.Client},
		logf:  log.New(cfg.LogW, "dist-worker: ", log.LstdFlags|log.LUTC),
		tasks: tasks, ids: ids,
		planHash: HashPlan(cfg.Tool, cfg.Fingerprint, ids),
		stats:    &WorkerStats{},
	}
	return w.stats, w.run(ctx)
}

// sleep waits d (capped at PollMax) or until ctx cancels.
func (w *worker[T]) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if d > w.cfg.PollMax {
		d = w.cfg.PollMax
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-w.cfg.Clock.After(d):
		return nil
	}
}

// backoff is the deterministic exponential schedule for transient errors.
func (w *worker[T]) backoff(attempt int) time.Duration {
	d := 50 * time.Millisecond << uint(min(attempt, 10))
	if d > w.cfg.PollMax {
		d = w.cfg.PollMax
	}
	return d
}

// post sends one protocol request and tracks reachability: any response,
// typed refusal included, proves the coordinator is there.
func (w *worker[T]) post(ctx context.Context, path string, req, out any) error {
	err := w.cl.post(ctx, path, req, out)
	var pe *ProtoError
	if err == nil || errors.As(err, &pe) {
		w.downSince = time.Time{}
	}
	return err
}

// retry logs a transport failure and sleeps the backoff for attempt. It
// returns ErrCoordinatorGone instead once the failures have lasted past the
// GoneAfterPolls bound, and ctx's error if ctx ends first.
func (w *worker[T]) retry(ctx context.Context, attempt int, what string, err error) error {
	now := w.cfg.Clock.Now()
	if w.downSince.IsZero() {
		w.downSince = now
	} else if down := now.Sub(w.downSince); down > GoneAfterPolls*w.cfg.PollMax {
		return fmt.Errorf("%w: no answer for %v (last error: %v)", ErrCoordinatorGone, down.Round(time.Millisecond), err)
	}
	w.stats.Reconnects++
	w.logf.Printf("%s: %v (retrying)", what, err)
	return w.sleep(ctx, w.backoff(attempt))
}

// register announces the plan until the coordinator accepts it (transport
// errors retry; typed refusals are fatal).
func (w *worker[T]) register(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		var pr PlanResponse
		err := w.post(ctx, "/v1/plan", &PlanRequest{
			Version: ProtocolVersion, Tool: w.cfg.Tool, Fingerprint: w.cfg.Fingerprint,
			TaskIDs: w.ids, Worker: w.cfg.Name,
		}, &pr)
		if err == nil {
			if pr.PlanHash != w.planHash {
				return fmt.Errorf("dist: coordinator accepted plan %s, this worker computed %s", pr.PlanHash, w.planHash)
			}
			w.logf.Printf("registered plan %s: %d tasks in %d ranges", pr.PlanHash, len(w.ids), pr.Ranges)
			return nil
		}
		var pe *ProtoError
		if errors.As(err, &pe) && fatalCode(pe.Code) {
			return err
		}
		if rerr := w.retry(ctx, attempt, "register", err); rerr != nil {
			return rerr
		}
	}
}

// run is the lease loop.
func (w *worker[T]) run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		err := w.post(ctx, "/v1/lease", &LeaseRequest{Worker: w.cfg.Name, PlanHash: w.planHash}, &lr)
		if err != nil {
			var pe *ProtoError
			switch {
			case errors.As(err, &pe) && pe.Code == CodeNoPlan:
				// The coordinator restarted from an empty data directory;
				// re-register and carry on.
				w.logf.Printf("coordinator lost the plan; re-registering")
				if rerr := w.register(ctx); rerr != nil {
					return rerr
				}
			case errors.As(err, &pe) && fatalCode(pe.Code):
				return err
			default:
				attempt++
				if rerr := w.retry(ctx, attempt, "lease", err); rerr != nil {
					return rerr
				}
			}
			continue
		}
		attempt = 0
		if lr.Done {
			break
		}
		if lr.LeaseID == "" {
			wait := time.Duration(lr.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			if serr := w.sleep(ctx, wait); serr != nil {
				return serr
			}
			continue
		}
		done, err := w.runLease(ctx, &lr)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	w.logf.Printf("sweep complete: %d ranges, %d tasks run here", w.stats.Ranges, w.stats.Tasks)
	return nil
}

// runLease executes one leased range and commits (or fails) it; done
// reports that the commit completed the sweep.
func (w *worker[T]) runLease(ctx context.Context, lr *LeaseResponse) (done bool, err error) {
	sub, err := sched.SliceRange(w.tasks, lr.Range)
	if err != nil {
		return false, fmt.Errorf("dist: lease %s: %w", lr.LeaseID, err)
	}
	// Double-check the shard against the coordinator's view of it; a
	// mismatch means the plans diverged and nothing should run.
	if len(lr.TaskIDs) != len(sub) {
		return false, fmt.Errorf("dist: lease %s names %d tasks, range %s covers %d", lr.LeaseID, len(lr.TaskIDs), lr.Range, len(sub))
	}
	for i, t := range sub {
		if lr.TaskIDs[i] != t.ID {
			return false, fmt.Errorf("dist: lease %s task %d is %q here, %q on the coordinator", lr.LeaseID, i, t.ID, lr.TaskIDs[i])
		}
	}
	spec := ""
	if lr.Speculative {
		spec = " (speculative)"
	}
	w.logf.Printf("lease %s: running range %d %s (%d tasks)%s", lr.LeaseID, lr.RangeIdx, lr.Range, len(sub), spec)

	// Heartbeat at a third of the TTL while the range computes. Heartbeat
	// failures never stop the work: commitment is lease-independent, so the
	// worst case is another worker duplicating byte-identical results.
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	hbCtx, hbStop := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-w.cfg.Clock.After(ttl / 3):
			}
			var hr HeartbeatResponse
			err := w.cl.post(hbCtx, "/v1/heartbeat", &HeartbeatRequest{Worker: w.cfg.Name, LeaseID: lr.LeaseID}, &hr)
			var pe *ProtoError
			switch {
			case err == nil:
			case errors.As(err, &pe) && pe.Code == CodeLeaseUnknown:
				// The lease lapsed (or the coordinator restarted and re-armed
				// a different grant). Keep computing — the commit dedupes.
				w.stats.LapsedLeases++
				w.logf.Printf("lease %s lapsed; finishing the range anyway", lr.LeaseID)
				return
			case hbCtx.Err() != nil:
				return
			default:
				w.logf.Printf("heartbeat %s: %v", lr.LeaseID, err)
			}
		}
	}()

	res, runErr := sched.RunSweep(ctx, sched.SweepConfig{
		Tool: w.cfg.Tool, Fingerprint: w.cfg.Fingerprint, Workers: w.cfg.Workers,
		Metrics: w.cfg.Metrics, Tracer: w.cfg.Tracer,
	}, sub)
	hbStop()
	<-hbDone
	if ctx.Err() != nil {
		return false, ctx.Err()
	}

	if runErr != nil {
		// Local failure: report it so the range re-dispatches immediately,
		// and let the coordinator's failure budget decide whether the sweep
		// survives.
		w.stats.Failures++
		fails := map[string]string{}
		if res != nil {
			for _, f := range res.Failed {
				fails[f.ID] = f.Err.Error()
			}
		}
		var fr FailResponse
		if err := w.post(ctx, "/v1/fail", &FailRequest{
			Worker: w.cfg.Name, PlanHash: w.planHash, LeaseID: lr.LeaseID,
			RangeIdx: lr.RangeIdx, Errors: fails,
		}, &fr); err != nil {
			w.logf.Printf("fail report for range %d: %v", lr.RangeIdx, err)
		}
		w.logf.Printf("range %d failed locally: %v (budget remaining %d)", lr.RangeIdx, runErr, fr.Remaining)
		return false, nil
	}

	results := make(map[string]json.RawMessage, len(sub))
	for _, t := range sub {
		v, ok := res.Results[t.ID]
		if !ok {
			return false, fmt.Errorf("dist: range %d completed but task %q has no result", lr.RangeIdx, t.ID)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return false, fmt.Errorf("dist: marshal result %q: %w", t.ID, err)
		}
		results[t.ID] = raw
	}
	return w.commit(ctx, lr, sub, results)
}

// commit delivers a completed range, retrying through transport errors and
// coordinator restarts — the work is done and perfectly good, and the
// coordinator dedupes, so at-least-once delivery is the right policy. done
// reports that the coordinator now holds every range.
func (w *worker[T]) commit(ctx context.Context, lr *LeaseResponse, sub []sched.Task[T], results map[string]json.RawMessage) (done bool, err error) {
	for attempt := 0; ; attempt++ {
		var rr ResultResponse
		err := w.post(ctx, "/v1/result", &ResultRequest{
			Worker: w.cfg.Name, PlanHash: w.planHash, LeaseID: lr.LeaseID,
			RangeIdx: lr.RangeIdx, Range: lr.Range, Results: results,
		}, &rr)
		if err == nil {
			w.stats.Ranges++
			w.stats.Tasks += len(sub)
			if rr.Duplicate {
				w.stats.Duplicates++
				w.logf.Printf("range %d already committed; deduped", lr.RangeIdx)
			} else {
				w.logf.Printf("range %d committed (%d tasks)", lr.RangeIdx, len(sub))
			}
			return rr.Done, nil
		}
		var pe *ProtoError
		switch {
		case errors.As(err, &pe) && pe.Code == CodeNoPlan:
			// Coordinator restarted empty mid-range: re-register, then
			// retry the commit.
			if rerr := w.register(ctx); rerr != nil {
				return false, rerr
			}
		case errors.As(err, &pe) && fatalCode(pe.Code):
			return false, err
		default:
			if rerr := w.retry(ctx, attempt, fmt.Sprintf("commit range %d", lr.RangeIdx), err); rerr != nil {
				return false, rerr
			}
		}
	}
}
