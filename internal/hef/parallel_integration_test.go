package hef_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/obs"
)

// searchGolden is the characterization table: the SHA-256 of
// obs.SearchJSON for SimEvaluator searches on silver at 4,096 elements.
// murmur is compute-bound, probe warms its 1 MiB hash table before every
// measurement, filter-2 warms nothing, and the budget-7 row pins a partial
// result. Every worker count must reproduce these bytes.
var searchGolden = []struct {
	name   string
	tmpl   func() *hid.Template
	budget int
	sha256 string
}{
	{"murmur", hashes.MurmurTemplate, 0, "32a3ab447ea8f324faf215e740fb81a3e9ee249ef3224dc6169591898b96df5a"},
	{"probe-1MiB", func() *hid.Template { return engine.ProbeTemplate(1 << 20) }, 0, "30df25f99282548077efc20755b49f0a8c157068aaea869fe8418ef41b6d386d"},
	{"filter-2", func() *hid.Template { return engine.FilterTemplate(2) }, 0, "48858095355d2fbfb5d647bebd206005df206c75c48c92761443ab3401c6197e"},
	{"murmur-budget-7", hashes.MurmurTemplate, 7, "3ccafaee867f518955e4696d7a286bcedb99657f91a53ac39df620944098beb2"},
}

// TestParallelSearchSimEvaluatorBytes is the production-shaped determinism
// check: real pruning searches over operator templates on the simulator
// evaluator must serialize (obs.SearchJSON) to the golden bytes at 0, 1, 2
// and 8 workers. Forks run on fresh simulators, so this also pins that a
// SimEvaluator measurement is a pure function of the node.
func TestParallelSearchSimEvaluatorBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen full searches")
	}
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 12
	for _, tc := range searchGolden {
		t.Run(tc.name, func(t *testing.T) {
			tmpl := tc.tmpl()
			initial, err := hef.InitialNode(cpu, tmpl, cpu.NativeWidth())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 1, 2, 8} {
				eval := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), elems)
				res, err := hef.SearchContext(t.Context(), eval, initial, hef.DefaultBounds,
					hef.SearchOpts{MaxEvaluations: tc.budget, Workers: w})
				if tc.budget > 0 && !errors.Is(err, hef.ErrBudgetExhausted) {
					t.Fatalf("workers=%d: err = %v, want ErrBudgetExhausted", w, err)
				} else if tc.budget == 0 && err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				js, err := obs.SearchJSON(res)
				if err != nil {
					t.Fatalf("workers=%d: marshal: %v", w, err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != tc.sha256 {
					t.Errorf("workers=%d: SearchJSON sha256 %s, golden %s", w, got, tc.sha256)
				}
			}
		})
	}
}

// BenchmarkSearchParallel measures one full pruning search over the probe
// template per iteration at several worker counts; workers=1 evaluates
// inline and is the baseline the speedups are quoted against.
func BenchmarkSearchParallel(b *testing.B) {
	cpu, err := isa.ByName("silver")
	if err != nil {
		b.Fatal(err)
	}
	tmpl := engine.ProbeTemplate(1 << 20)
	initial, err := hef.InitialNode(cpu, tmpl, cpu.NativeWidth())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), hef.DefaultTestElems)
				res, err := hef.SearchContext(context.Background(), eval, initial, hef.DefaultBounds,
					hef.SearchOpts{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Tested), "nodes")
			}
		})
	}
}
