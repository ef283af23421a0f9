package hef

import (
	"reflect"
	"sync"
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
	if !reflect.DeepEqual(want, got) {
		t.Fatal("linked hit diverges")
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

// TestLinkKeysTemplateSnapshot: an evaluator measures the snapshot of the
// template it was built on, so an in-place edit of the caller's template
// changes nothing for it — the same node hits its link with the same
// Result and records no new miss — while a new evaluator on the edited
// template misses and stores a measurement of its own.
func TestLinkKeysTemplateSnapshot(t *testing.T) {
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
	again, err := ev.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(small, again) {
		t.Fatal("an edit of the caller's template reached the evaluator's measurement")
	}
	if st := cache.Stats(); st != (memo.Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("stats after the edit = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	edited := NewSimEvaluator(cpu, tmpl, 0, 1<<12)
	edited.SetMemo(cache)
	big, err := edited.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(small, big) {
		t.Fatal("a 32 MiB table measured like a 128 KiB one: stale link served")
	}
	if st := cache.Stats(); st != (memo.Stats{Hits: 1, Misses: 2, Entries: 2}) {
		t.Fatalf("stats after a new evaluator = %+v, want 1 hit / 2 misses / 2 entries", st)
	}
}

// TestLinkForksKeyConcurrently: forks share their parent's hashed prefix
// and key nodes on several goroutines at once, each hitting the links the
// parent recorded with the parent's Results.
func TestLinkForksKeyConcurrently(t *testing.T) {
	cache := memo.NewCache()
	ev := NewSimEvaluator(isa.XeonSilver4110(), engine.ProbeTemplate(1<<18), 0, 1<<10)
	ev.SetMemo(cache)
	nodes := []Node{{V: 1, S: 0, P: 1}, {V: 0, S: 1, P: 1}, {V: 1, S: 1, P: 2}}
	want := make([]*uarch.Result, len(nodes))
	for i, n := range nodes {
		res, err := ev.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const forks = 4
	var wg sync.WaitGroup
	for g := 0; g < forks; g++ {
		f := ev.Fork().(*SimEvaluator)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range nodes {
				if got, err := f.Run(n); err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("fork Run(%v) diverges from the parent's (err %v)", n, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st != (memo.Stats{Hits: forks * uint64(len(nodes)), Misses: uint64(len(nodes)), Entries: uint64(len(nodes))}) {
		t.Fatalf("stats = %+v, want every fork call a linked hit", st)
	}
}
