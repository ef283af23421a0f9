package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hef/internal/store"
	"hef/internal/telemetry"
)

// ErrJobsFailed marks a sweep that ran to the end of its task list but left
// tasks failed.
var ErrJobsFailed = errors.New("sched: sweep jobs failed")

// Task is one typed unit of a sweep. ID must be unique within the sweep and
// deterministic across runs (it keys the checkpoint); Run must be
// deterministic for checkpoint/resume to reproduce an uninterrupted run
// byte-for-byte.
type Task[T any] struct {
	ID  string
	Run func(ctx context.Context) (T, error)
}

// SweepConfig parameterises RunSweep.
type SweepConfig struct {
	// Tool and Fingerprint identify the sweep configuration; a resumed
	// checkpoint must carry the same pair.
	Tool        string
	Fingerprint string
	// CheckpointPath enables checkpointing after every completed task and
	// once more before returning ("" disables).
	CheckpointPath string
	// ResumePath loads a prior checkpoint and skips its completed tasks
	// ("" starts fresh).
	ResumePath string
	// Workers is how many tasks run at once (<= 0 selects 1, which runs
	// the tasks inline in list order).
	Workers int
	// FS is the filesystem checkpoints are written to; nil selects the real
	// one (store.OS). Tests inject failing filesystems here.
	FS store.FS
	// Metrics receives sweep progress events (task totals, completions,
	// checkpoint flushes). Nil-safe; never read back into sweep decisions,
	// so checkpoints and results are identical with or without it.
	Metrics *telemetry.SweepMetrics
	// Tracer records the sweep span, a run span per task and a span per
	// checkpoint flush.
	Tracer *telemetry.Tracer
}

// Failure is a task that ran and did not complete: its error, a recovered
// *PanicError, or the cancellation it returned after ctx was done.
type Failure struct {
	ID  string
	Err error
}

// SweepResult is the outcome of RunSweep.
type SweepResult[T any] struct {
	// Results holds every completed task's value, resumed or executed.
	Results map[string]T
	// Resumed counts tasks satisfied from the resume checkpoint; Executed
	// counts tasks that ran to completion in this process.
	Resumed  int
	Executed int
	// Failed lists the tasks that ran and failed, sorted by ID. Tasks that
	// never started because ctx was done are in neither Results nor Failed.
	Failed []Failure
	// Interrupted is true when ctx was done before the sweep returned; the
	// checkpoint (if configured) was still flushed.
	Interrupted bool
	// RestoredFromBackup is true when the resume checkpoint's primary file
	// was unusable and the ".bak" rotation served the load (the last
	// completed task may be lost and will be re-executed).
	RestoredFromBackup bool
	// PersistWarning is non-empty when checkpoint persistence failed
	// mid-sweep (disk full, read-only volume). The sweep completed anyway —
	// results are returned in memory — but further flushes were disabled;
	// this string carries the first failure for the tool's single warning.
	PersistWarning string
}

// RunSweep runs tasks on a worker loop with crash-safe checkpoint/resume:
//
//   - With cfg.ResumePath, completed tasks are loaded from the checkpoint
//     and not run again.
//   - One worker runs the remaining tasks inline, in list order; more pull
//     the next index from a shared counter. Each task gets ctx itself, and
//     a panic inside it becomes a *PanicError failure.
//   - With cfg.CheckpointPath, every completion is recorded and flushed
//     under one lock, and the checkpoint is flushed once more on return.
//   - Once ctx is done (deadline, SIGINT/SIGTERM via signal.NotifyContext)
//     no new task starts; running tasks see the cancellation through ctx,
//     and the result reports Interrupted, so a later resume runs exactly
//     the failed and unstarted tasks.
//
// Tasks must be deterministic: a resumed sweep's Results map is then
// value-identical to an uninterrupted run's, and a report assembled from
// it in task order is byte-identical. RunSweep returns the result plus
// ctx.Err() when interrupted, an ErrJobsFailed wrap when tasks failed, or
// nil when every task completed.
func RunSweep[T any](ctx context.Context, cfg SweepConfig, tasks []Task[T]) (*SweepResult[T], error) {
	if cfg.FS == nil {
		cfg.FS = store.OS
	}
	defer cfg.Tracer.Begin("sweep", cfg.Tool)()
	res := &SweepResult[T]{Results: make(map[string]T, len(tasks))}

	cp := NewCheckpoint(cfg.Tool, cfg.Fingerprint)
	todo := tasks
	if cfg.ResumePath != "" {
		// A missing or unloadable resume file is fatal, not degraded:
		// silently starting fresh would throw away the progress the caller
		// explicitly asked to reuse.
		prior, fromBackup, err := LoadCheckpointFS(cfg.FS, cfg.ResumePath)
		if err != nil {
			return nil, err
		}
		res.RestoredFromBackup = fromBackup
		if err := prior.Match(cfg.Tool, cfg.Fingerprint); err != nil {
			return nil, err
		}
		todo = nil
		for _, t := range tasks {
			var v T
			ok, err := prior.Get(t.ID, &v)
			if err != nil {
				return nil, err
			}
			if !ok {
				todo = append(todo, t)
				continue
			}
			res.Results[t.ID] = v
			if err := cp.Put(t.ID, v); err != nil {
				return nil, err
			}
			res.Resumed++
		}
	}
	cfg.Metrics.OnPlan(len(tasks), res.Resumed)
	defer context.AfterFunc(ctx, cfg.Metrics.OnInterrupt)()

	// A flush failure (disk full, volume gone read-only) must not fail the
	// sweep: the results are all still in memory and perfectly good. The
	// first failure disables further checkpointing and is surfaced once via
	// PersistWarning; only durability degrades. Workers flush under mu; the
	// final flush runs after they have all returned.
	var mu sync.Mutex
	flush := func() {
		if cfg.CheckpointPath == "" || res.PersistWarning != "" {
			return
		}
		start := time.Now()
		if err := cp.SaveFS(cfg.FS, cfg.CheckpointPath); err != nil {
			res.PersistWarning = fmt.Sprintf("checkpointing disabled: %v", err)
		}
		dur := time.Since(start)
		cfg.Metrics.OnFlush(dur.Seconds())
		cfg.Tracer.Record("checkpoint", "flush", start, dur)
	}
	run := func(t Task[T]) {
		start := time.Now()
		v, err := runTask(ctx, t)
		cfg.Tracer.Record("run", t.ID, start, time.Since(start))
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.Failed = append(res.Failed, Failure{ID: t.ID, Err: err})
			return
		}
		cfg.Metrics.OnTaskDone()
		res.Results[t.ID] = v
		res.Executed++
		if err := cp.Put(t.ID, v); err != nil && res.PersistWarning == "" {
			res.PersistWarning = fmt.Sprintf("checkpointing disabled: %v", err)
		}
		flush()
	}

	if workers := min(cfg.Workers, len(todo)); workers <= 1 {
		for _, t := range todo {
			if ctx.Err() != nil {
				break
			}
			run(t)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(todo) {
						return
					}
					run(todo[i])
				}
			}()
		}
		wg.Wait()
	}

	flush()
	res.Interrupted = ctx.Err() != nil
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].ID < res.Failed[j].ID })
	if res.Interrupted {
		return res, ctx.Err()
	}
	if len(res.Failed) > 0 {
		ids := make([]string, len(res.Failed))
		for i, f := range res.Failed {
			ids[i] = f.ID
		}
		return res, fmt.Errorf("%w: %s", ErrJobsFailed, strings.Join(ids, ", "))
	}
	return res, nil
}

// runTask runs one task, recovering a panic into a *PanicError.
func runTask[T any](ctx context.Context, t Task[T]) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{TaskID: t.ID, Value: rec, Stack: debug.Stack()}
		}
	}()
	return t.Run(ctx)
}
