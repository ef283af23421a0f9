// Package sched runs the offline phase's sweeps: a fixed list of
// independent, deterministic tasks on a small worker loop, with crash-safe
// checkpoint/resume. RunSweep persists every completed result as a
// versioned, byte-deterministic checkpoint; a cancelled context starts no
// new task, lets the running ones see the cancellation, and flushes the
// checkpoint; and a resumed sweep skips completed tasks, so the final
// report is byte-identical to an uninterrupted run (see DESIGN.md §7).
//
// The package also holds the pieces the sweep's neighbours share: the
// worker loop the search waves and SSB stage pre-measurement run on too
// (ForEach), the keyed circuit breaker hefd's tenant admission uses, the
// Clock abstraction, and the task ranges the distributed coordinator
// leases out.
package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(w, i) once for every index i in [0, n) on up to workers
// workers and returns when every call has returned. One worker (workers
// <= 1, or n <= 1) runs the indices inline on the calling goroutine, in
// order, as worker 0; more each get a goroutine, numbered w = 0, 1, ...,
// that pulls the next index from a shared counter. Once ctx is done no
// further index starts, and calls already running are not interrupted.
// fn must recover its own panics: each caller reports one as its own
// error type.
func ForEach(ctx context.Context, workers, n int, fn func(w, i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// PanicError is a panic recovered from inside a task's Run function: the
// task fails, the worker and the process survive. It unwraps to the panic
// value when that value was itself an error.
type PanicError struct {
	// TaskID is the task whose Run panicked.
	TaskID string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %q panicked: %v", e.TaskID, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
