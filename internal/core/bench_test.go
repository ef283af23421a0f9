package core

import (
	"context"
	"testing"

	"hef/internal/experiments"
	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/memo"
)

// BenchmarkOptimizeOperator times the full offline phase for one operator:
// candidate generation, the pruning search with simulator-backed
// evaluations, and final code generation. The "memo" variant shares a
// measurement cache across iterations, so after the first iteration every
// candidate evaluation is a fingerprint lookup — the steady-state cost of
// a warm sweep (multi-operator batches, sensitivity trials).
func BenchmarkOptimizeOperator(b *testing.B) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	tmpl := hashes.MurmurTemplate()
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		cache := memo.NewCache()
		for i := 0; i < b.N; i++ {
			if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{Memo: cache}); err != nil {
				b.Fatal(err)
			}
		}
		st := cache.Stats()
		b.ReportMetric(st.HitRate()*100, "hit%")
	})
}

// BenchmarkMemoWarmSearch times one round of hefopt's six operator
// searches on silver against a memo primed with the same searches, as
// hefbench's search-warm workload runs them: every evaluation is a linked
// hit, so an operation is keying, lookups and the search walk alone.
func BenchmarkMemoWarmSearch(b *testing.B) {
	fw, err := New("silver", WithTestElems(2048))
	if err != nil {
		b.Fatal(err)
	}
	var tmpls []*hid.Template
	for _, op := range reuseOps {
		tmpl, err := experiments.OpTemplate(op)
		if err != nil {
			b.Fatal(err)
		}
		tmpls = append(tmpls, tmpl)
	}
	cache := memo.NewCache()
	ctx := context.Background()
	round := func() {
		for _, tmpl := range tmpls {
			if _, err := fw.OptimizeOperatorContext(ctx, tmpl, OptimizeOptions{Memo: cache}); err != nil {
				b.Fatal(err)
			}
		}
	}
	round() // prime the memo and its links
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
