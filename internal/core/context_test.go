package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"hef/internal/hashes"
	"hef/internal/hef"
)

// TestOptimizeOperatorContextPreCancelled pins the graceful-degradation
// contract: an already-cancelled context returns within one node evaluation
// with a usable Partial result (the initial candidate, translated).
func TestOptimizeOperatorContextPreCancelled(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	opt, err := fw.OptimizeOperatorContext(ctx, hashes.MurmurTemplate(), OptimizeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if opt == nil || !opt.Partial {
		t.Fatalf("opt = %+v, want a partial result", opt)
	}
	if opt.Search.Tested > 1 {
		t.Errorf("pre-cancelled context evaluated %d nodes, want at most one", opt.Search.Tested)
	}
	if opt.Source() == "" || opt.Program() == nil {
		t.Error("partial result must still carry translated code for its best node")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled optimization took %v", elapsed)
	}
}

func TestOptimizeOperatorContextBudget(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3
	opt, err := fw.OptimizeOperatorContext(context.Background(), hashes.MurmurTemplate(),
		OptimizeOptions{Budget: budget})
	if !errors.Is(err, hef.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want hef.ErrBudgetExhausted", err)
	}
	if opt == nil || !opt.Partial {
		t.Fatalf("opt = %+v, want a partial best-so-far result", opt)
	}
	if opt.Search.Tested != budget {
		t.Errorf("tested %d nodes, want exactly the budget %d", opt.Search.Tested, budget)
	}
	if opt.SecondsPerElem() <= 0 {
		t.Error("partial optimum must have a measured cost")
	}
}

func TestOptimizeOperatorContextUnlimited(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := fw.OptimizeOperatorContext(context.Background(), hashes.MurmurTemplate(), OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Partial {
		t.Error("unlimited search should not be partial")
	}
	ref, err := fw.OptimizeOperator(hashes.MurmurTemplate())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Node != ref.Node {
		t.Errorf("context path found %v, plain path %v", opt.Node, ref.Node)
	}
}
