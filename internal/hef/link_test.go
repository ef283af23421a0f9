package hef

import (
	"reflect"
	"testing"

	"hef/internal/engine"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/uarch"
)

// TestLinkedRunBuildsNoSimulator: once a node's translation inputs are
// linked to its measurement, another evaluator serves it from the memo
// without building a simulator, bit-identical to the measured Result and
// counted as exactly one hit.
func TestLinkedRunBuildsNoSimulator(t *testing.T) {
	cpu := isa.XeonSilver4110()
	tmpl := engine.ProbeTemplate(1 << 18)
	node := Node{V: 1, S: 1, P: 2}
	const elems = 1 << 12
	cache := memo.NewCache()

	first := NewSimEvaluator(cpu, tmpl, 0, elems)
	first.SetMemo(cache)
	want, err := first.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewSimEvaluator(cpu, tmpl, 0, elems).Fork().(*SimEvaluator)
	ev.SetMemo(cache)
	got, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if ev.sims.Pop() != nil {
		t.Fatal("a linked memo hit built a simulator")
	}
	if !reflect.DeepEqual(want, got) || ev.Evaluations != 1 {
		t.Fatalf("linked hit diverges (evaluations %d)", ev.Evaluations)
	}
	if st := cache.Stats(); st != (memo.Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// A cache filled without links (as a durable store loads one) hits on
	// the measurement key after translating, and links it for next time.
	loaded := memo.NewCache()
	cache.Range(func(k memo.Key, r *uarch.Result) { loaded.Put(k, r) })
	warm := NewSimEvaluator(cpu, tmpl, 0, elems)
	warm.SetMemo(loaded)
	if got, err := warm.Run(node); err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("measurement-key hit diverges: %v", err)
	}
	linked := NewSimEvaluator(cpu, tmpl, 0, elems)
	linked.SetMemo(loaded)
	if _, err := linked.Run(node); err != nil || linked.sims.Pop() != nil {
		t.Fatalf("the measurement-key hit left no link (err %v)", err)
	}
	if st := loaded.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("loaded stats = %+v, want 2 hits / 0 misses", st)
	}
}

// TestLinkFollowsTemplateEdits: the translation key is recomputed on every
// Run, so editing the template between runs misses instead of serving the
// old template's measurement.
func TestLinkFollowsTemplateEdits(t *testing.T) {
	cpu := isa.XeonSilver4110()
	tmpl := engine.ProbeTemplate(1 << 18)
	node := Node{V: 1, S: 1, P: 2}
	cache := memo.NewCache()
	ev := NewSimEvaluator(cpu, tmpl, 0, 1<<12)
	ev.SetMemo(cache)
	small, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.SetRegion("htkeys", 32<<20); err != nil {
		t.Fatal(err)
	}
	big, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(small, big) {
		t.Fatal("a 32 MiB table measured like a 128 KiB one: stale link served")
	}
	if st := cache.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 misses / 2 entries", st)
	}
}
