package hef

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// forkableEval is a deterministic synthetic cost surface implementing
// ForkableEvaluator; its forks share an atomic call counter and optional
// per-node fault/cancel hooks, so the tests can inject failures that fire
// no matter which fork draws the node. A nonzero step rounds every cost up
// to a multiple of step, so neighbours tie.
type forkableEval struct {
	calls    *atomic.Int64
	panicAt  map[Node]bool
	cancelAt map[Node]bool
	cancel   context.CancelFunc
	step     float64
}

func newForkableEval() *forkableEval {
	return &forkableEval{calls: new(atomic.Int64)}
}

func (e *forkableEval) Evaluate(n Node) (float64, error) {
	e.calls.Add(1)
	if e.panicAt[n] {
		panic(fmt.Sprintf("synthetic fault at %v", n))
	}
	if e.cancelAt[n] {
		e.cancel()
	}
	d := func(a, b int) float64 { x := float64(a - b); return x * x }
	cost := 1 + d(n.V, 2) + d(n.S, 3) + d(n.P, 4)
	if e.step > 0 {
		cost = math.Ceil(cost/e.step) * e.step
	}
	return cost, nil
}

func (e *forkableEval) Fork() Evaluator {
	return &forkableEval{calls: e.calls, panicAt: e.panicAt, cancelAt: e.cancelAt, cancel: e.cancel, step: e.step}
}

var parallelWorkerCounts = []int{0, 1, 2, 8}

// TestParallelSearchMatchesSerial: the wave engine must reproduce the
// serial reference Result — trace order, parents, candidate and end lists,
// best node — exactly, for every worker count, on the bowl and on a
// terraced bowl whose ties exercise the strict pruning comparison.
func TestParallelSearchMatchesSerial(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	for _, step := range []float64{0, 4} {
		mk := func() *forkableEval { e := newForkableEval(); e.step = step; return e }
		serial, err := referenceSearch(mk(), initial, testBounds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range parallelWorkerCounts {
			par, err := SearchContext(context.Background(), mk(), initial, testBounds,
				SearchOpts{Workers: w})
			if err != nil {
				t.Fatalf("step=%g workers=%d: %v", step, w, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("step=%g workers=%d: result diverged from serial\nserial: %+v\nparallel: %+v", step, w, serial, par)
			}
		}
	}
}

// TestParallelSearchBudgetMatchesSerial: budget exhaustion must cut the
// wave engine at the same evaluation, with the same error, as the serial
// reference.
func TestParallelSearchBudgetMatchesSerial(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	for _, budget := range []int{1, 2, 5, 9, 30} {
		serial, serr := referenceSearch(newForkableEval(), initial, testBounds, budget)
		if !errors.Is(serr, ErrBudgetExhausted) {
			t.Fatalf("budget=%d: serial err = %v", budget, serr)
		}
		for _, w := range parallelWorkerCounts {
			par, perr := SearchContext(context.Background(), newForkableEval(), initial, testBounds,
				SearchOpts{MaxEvaluations: budget, Workers: w})
			if !errors.Is(perr, ErrBudgetExhausted) {
				t.Fatalf("budget=%d workers=%d: err = %v", budget, w, perr)
			}
			if perr.Error() != serr.Error() {
				t.Errorf("budget=%d workers=%d: error %q, serial %q", budget, w, perr, serr)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("budget=%d workers=%d: partial result diverged from serial", budget, w)
			}
		}
	}
}

// TestParallelSearchPanicMatchesSerial: an evaluator panic keyed to a node
// must surface the identical *PanicError node and best-so-far state for
// every worker count — the wave replay stops exactly where the serial
// reference does.
func TestParallelSearchPanicMatchesSerial(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	bad := Node{V: 2, S: 2, P: 1}
	mk := func() *forkableEval {
		e := newForkableEval()
		e.panicAt = map[Node]bool{bad: true}
		return e
	}
	serial, serr := referenceSearch(mk(), initial, testBounds, 0)
	var spe *PanicError
	if !errors.As(serr, &spe) {
		t.Fatalf("serial err = %v, want *PanicError", serr)
	}
	for _, w := range parallelWorkerCounts {
		par, perr := SearchContext(context.Background(), mk(), initial, testBounds, SearchOpts{Workers: w})
		var pe *PanicError
		if !errors.As(perr, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", w, perr)
		}
		if pe.Node != spe.Node {
			t.Errorf("workers=%d: panicked node %v, serial %v", w, pe.Node, spe.Node)
		}
		// The stack differs by construction; everything the search reports
		// must not.
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: partial result diverged from serial", w)
		}
	}
}

// TestParallelSearchCancelMidFrontier: a cancellation triggered from inside
// an evaluation takes effect at the next wave boundary. That boundary is a
// deterministic point of the walk, so every worker count must produce the
// same bytes.
func TestParallelSearchCancelMidFrontier(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	trigger := Node{V: 2, S: 1, P: 1} // evaluated in the first frontier
	var ref *Result
	for _, w := range parallelWorkerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		e := newForkableEval()
		e.cancelAt = map[Node]bool{trigger: true}
		e.cancel = cancel
		res, err := SearchContext(ctx, e, initial, testBounds, SearchOpts{Workers: w})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if !res.Partial {
			t.Fatalf("workers=%d: cancelled search did not mark Partial", w)
		}
		// The triggering frontier still completes: all five valid
		// first-wave neighbours must be in the trace (initial + 5).
		if len(res.Trace) != 6 {
			t.Errorf("workers=%d: trace has %d steps, want 6 (initial + full first frontier)", w, len(res.Trace))
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: cancelled result diverged from workers=%d", w, parallelWorkerCounts[0])
		}
	}
}

// TestParallelSearchPreCancelled mirrors TestSearchContextPreCancelled at
// four workers: no evaluations at all.
func TestParallelSearchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newForkableEval()
	res, err := SearchContext(ctx, e, Node{V: 1, S: 1, P: 1}, testBounds, SearchOpts{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("res = %+v, want non-nil partial result", res)
	}
	if e.calls.Load() != 0 {
		t.Errorf("pre-cancelled context still ran %d evaluations", e.calls.Load())
	}
}

// TestParallelSearchUnforkableEvaluator: an evaluator without Fork must
// still work under Workers > 1 (concurrency degrades to one worker, results
// unchanged). countingEval is not safe for concurrent use, which is the
// point: the engine must never call it from two goroutines.
func TestParallelSearchUnforkableEvaluator(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	serial, err := referenceSearch(&countingEval{}, initial, testBounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SearchContext(context.Background(), &countingEval{}, initial, testBounds, SearchOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("unforkable evaluator under Workers=8 diverged from serial")
	}
}

// blockingEval proves real concurrency: each Evaluate (except the serially
// measured initial node) blocks until `need` evaluations have been in
// flight simultaneously, so the search only completes if the wave engine
// genuinely runs that many evaluators at once. The gate latches open once
// reached, so odd frontier tails can't deadlock.
type blockingEval struct {
	mu       *sync.Mutex
	cond     *sync.Cond
	initial  Node
	inFlight int
	need     int
}

func newBlockingEval(need int, initial Node) *blockingEval {
	mu := &sync.Mutex{}
	return &blockingEval{mu: mu, cond: sync.NewCond(mu), need: need, initial: initial}
}

func (e *blockingEval) Evaluate(n Node) (float64, error) {
	if n != e.initial {
		e.mu.Lock()
		e.inFlight++
		if e.inFlight >= e.need {
			e.cond.Broadcast()
		}
		for e.inFlight < e.need {
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
	d := func(a, b int) float64 { x := float64(a - b); return x * x }
	return 1 + d(n.V, 2) + d(n.S, 3) + d(n.P, 4), nil
}

func (e *blockingEval) Fork() Evaluator { return e }

// TestParallelSearchRunsConcurrently would deadlock (and time out in the
// first frontier) if the wave engine serialized its evaluations.
func TestParallelSearchRunsConcurrently(t *testing.T) {
	initial := Node{V: 1, S: 1, P: 1}
	e := newBlockingEval(2, initial)
	res, err := SearchContext(context.Background(), e, initial, testBounds, SearchOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != (Node{V: 2, S: 3, P: 4}) {
		t.Errorf("best = %v, want the bowl optimum (2,3,4)", res.Best)
	}
}
