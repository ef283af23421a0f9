package hef

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrBudgetExhausted marks a search stopped by SearchOpts.MaxEvaluations.
// Test with errors.Is; the accompanying Result holds the best node found
// within the budget.
var ErrBudgetExhausted = errors.New("node-evaluation budget exhausted")

// SearchOpts configures SearchContext's degradation behaviour.
type SearchOpts struct {
	// MaxEvaluations caps the number of evaluator invocations (unique nodes
	// measured, the initial node included). Zero means unlimited. When the
	// cap is hit the search returns best-so-far with an ErrBudgetExhausted
	// error.
	MaxEvaluations int
	// Workers is how many evaluators measure each search frontier: the
	// caller's evaluator plus Workers-1 forks (the evaluator must implement
	// ForkableEvaluator to get real concurrency). One worker evaluates
	// inline on the calling goroutine. The Result is byte-identical for
	// every worker count. 0 means 1. Context cancellation is wave-granular;
	// see SearchContext.
	Workers int
}

// PanicError is a panic from inside an evaluator (translator or simulator)
// recovered by SearchContext and surfaced as an error. It unwraps to the
// panic value when that value was itself an error.
type PanicError struct {
	// Node is the candidate whose evaluation panicked.
	Node Node
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("hef: evaluating node %v panicked: %v", e.Node, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// safeEvaluate runs eval.Evaluate with panics converted to *PanicError, so a
// bug reached only through an exotic candidate aborts that search cleanly
// instead of tearing down the process.
func safeEvaluate(eval Evaluator, n Node) (sec float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Node: n, Value: r, Stack: debug.Stack()}
		}
	}()
	return eval.Evaluate(n)
}
