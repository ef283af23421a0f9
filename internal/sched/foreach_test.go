package sched

import (
	"context"
	"sync"
	"testing"
)

// TestForEachVisitsEveryIndexOnce: at every worker count each index runs
// exactly once, on a worker numbered below the worker count and the index
// count; one worker runs the indices in order on the calling goroutine.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var mu sync.Mutex
		var order []int
		seen := make([]int, n)
		ForEach(context.Background(), workers, n, func(w, i int) {
			if w < 0 || w >= max(1, min(workers, n)) {
				t.Errorf("workers=%d: index %d ran on worker %d", workers, i, w)
			}
			mu.Lock()
			seen[i]++
			order = append(order, i)
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, c)
			}
		}
		if workers <= 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("workers=%d: inline order %v, want 0..%d", workers, order, n-1)
				}
			}
		}
	}
}

// TestForEachStartsNothingOnceDone: once ctx is done no further index
// starts, inline or on workers; an index already running finishes.
func TestForEachStartsNothingOnceDone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		ran := 0
		ForEach(ctx, workers, 100, func(_, i int) {
			mu.Lock()
			ran++
			mu.Unlock()
			if i == 0 {
				cancel()
			}
			// Every other index waits for the cancel, so each worker has
			// pulled at most one index by then.
			<-ctx.Done()
		})
		// Index 0 cancels; besides it, only the indices the other workers
		// had already pulled run.
		if ran < 1 || ran > workers {
			t.Errorf("workers=%d: %d indices ran after a cancel at index 0, want 1..%d", workers, ran, workers)
		}
		cancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ForEach(ctx, 4, 10, func(_, i int) { t.Errorf("index %d ran under a done context", i) })
}
