package hef_test

import (
	"reflect"
	"testing"

	"hef/internal/engine"
	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/uarch"
)

// TestSimEvaluatorMemo: a memoized evaluator returns bit-identical Results
// to an unmemoized one, hits on repeats of the same node, and shares
// entries with other evaluator instances on the same cache — the
// cross-operator/cross-trial reuse the batch drivers rely on.
func TestSimEvaluatorMemo(t *testing.T) {
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := engine.ProbeTemplate(1 << 18)
	node := hef.Node{V: 1, S: 1, P: 2}
	const elems = 1 << 12

	plain := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), elems)
	want, err := plain.Run(node)
	if err != nil {
		t.Fatal(err)
	}

	cache := memo.NewCache()
	ev := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), elems)
	ev.SetMemo(cache)
	first, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, second) {
		t.Fatal("memoized results diverge from the unmemoized measurement")
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after repeat = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// A different evaluator instance over the same inputs shares the entry.
	other := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), elems)
	other.SetMemo(cache)
	shared, err := other.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, shared) {
		t.Fatal("cross-instance cached result diverges")
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("stats after cross-instance run = %+v, want 2 hits", st)
	}

	// Different test sizes must not share entries.
	bigger := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 2*elems)
	bigger.SetMemo(cache)
	if _, err := bigger.Run(node); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Fatalf("stats after different elems = %+v, want 2 entries / 2 misses", st)
	}

	// A perturbed evaluator must not read the nominal entry.
	pert := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), elems)
	pert.SetPerturb(&uarch.Perturb{Seed: 3, LatJitter: 0.2})
	pert.SetMemo(cache)
	pres, err := pert.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want, pres) {
		t.Fatal("perturbed measurement unexpectedly identical to nominal — cache key too coarse?")
	}
	if st := cache.Stats(); st.Entries != 3 {
		t.Fatalf("stats after perturbed run = %+v, want 3 entries", st)
	}
}
