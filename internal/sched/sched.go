// Package sched runs the offline phase's sweeps: a fixed list of
// independent, deterministic tasks on a small worker loop, with crash-safe
// checkpoint/resume. RunSweep persists every completed result as a
// versioned, byte-deterministic checkpoint; a cancelled context starts no
// new task, lets the running ones see the cancellation, and flushes the
// checkpoint; and a resumed sweep skips completed tasks, so the final
// report is byte-identical to an uninterrupted run (see DESIGN.md §7).
//
// The package also holds the pieces the sweep's neighbours share: the
// keyed circuit breaker hefd's tenant admission uses, the Clock
// abstraction, and the task ranges the distributed coordinator leases out.
package sched

import "fmt"

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
