package hef

import (
	"testing"

	"hef/internal/telemetry"
)

// TestSearchMetrics checks every worker count publishes the same progress
// series — evaluations, prune counts, frontiers, best-so-far — and that
// installing metrics does not change the search result.
func TestSearchMetrics(t *testing.T) {
	opt := Node{V: 2, S: 2, P: 3}
	baseline, err := referenceSearch(&fakeEval{opt: opt}, Node{V: 1, S: 1, P: 1}, DefaultBounds, 0)
	if err != nil {
		t.Fatal(err)
	}

	var waves float64
	for _, workers := range []int{0, 1, 4} {
		reg := telemetry.NewRegistry()
		SetMetrics(telemetry.NewSearchMetrics(reg))
		eval := &forkableFake{fakeEval{opt: opt}}
		res, err := SearchContext(t.Context(), eval, Node{V: 1, S: 1, P: 1}, DefaultBounds,
			SearchOpts{Workers: workers})
		SetMetrics(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Best != baseline.Best || res.Tested != baseline.Tested {
			t.Fatalf("workers=%d: instrumented search diverged: best %v tested %d, want %v %d",
				workers, res.Best, res.Tested, baseline.Best, baseline.Tested)
		}

		vals := reg.Values()
		if got := vals[telemetry.MetricEvaluated]; got != float64(res.Tested) {
			t.Errorf("workers=%d: evaluated = %g, want %d", workers, got, res.Tested)
		}
		if got := vals[telemetry.MetricPruned]; got != float64(len(res.EndList)) {
			t.Errorf("workers=%d: pruned = %g, want %d", workers, got, len(res.EndList))
		}
		if waves == 0 {
			waves = vals[telemetry.MetricWaves]
		}
		if got := vals[telemetry.MetricWaves]; got == 0 || got != waves {
			t.Errorf("workers=%d: waves = %g, want %g at every worker count", workers, got, waves)
		}
		wantBest := res.BestSeconds * 1e9
		if got := vals[telemetry.MetricBestNS]; got != wantBest {
			t.Errorf("workers=%d: best = %g ns, want %g", workers, got, wantBest)
		}
		if vals[telemetry.MetricFrontierSize] != 0 {
			t.Errorf("workers=%d: frontier gauge not cleared: %g", workers, vals[telemetry.MetricFrontierSize])
		}
	}
}

// forkableFake lets the wave engine run with real concurrency in tests.
type forkableFake struct{ fakeEval }

func (f *forkableFake) Fork() Evaluator { return &forkableFake{fakeEval{opt: f.opt}} }
