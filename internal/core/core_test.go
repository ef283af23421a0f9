package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/translator"
	"hef/internal/uarch"
)

func TestNewFramework(t *testing.T) {
	fw, err := New("silver")
	if err != nil {
		t.Fatal(err)
	}
	if fw.CPU().Name != "Intel Xeon Silver 4110" {
		t.Errorf("CPU = %q", fw.CPU().Name)
	}
	if _, err := New("epyc"); err == nil {
		t.Error("unknown CPU should error")
	}
}

func TestOptimizeOperatorMurmur(t *testing.T) {
	if testing.Short() {
		t.Skip("search is slow")
	}
	fw, err := New("silver", WithTestElems(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := fw.OptimizeOperator(hashes.MurmurTemplate())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Node.V != 1 || opt.Node.S < 3 {
		t.Errorf("murmur optimum = %v, want the paper's hybrid shape (v=1, s>=3)", opt.Node)
	}
	if opt.Initial != (translator.Node{V: 1, S: 3, P: 3}) {
		t.Errorf("initial node = %v, want n(1,3,3) from the candidate generator", opt.Initial)
	}
	if !strings.Contains(opt.Source(), "_mm512_mullo_epi64") {
		t.Error("generated source should contain AVX-512 intrinsics")
	}
	if opt.Search.Tested >= opt.Search.SpaceSize {
		t.Error("pruning should avoid testing the whole space")
	}
	if opt.SecondsPerElem() <= 0 {
		t.Error("optimum must have a positive measured cost")
	}
	if prog := opt.Program(); prog == nil || len(prog.Body) == 0 {
		t.Error("optimized operator should carry its trace")
	}
}

func TestTranslateAndMeasure(t *testing.T) {
	fw, err := New("gold", WithWidth(isa.W256), WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Translate(hashes.MurmurTemplate(), translator.Node{V: 1, S: 0, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.ElemsPerIter != 4 {
		t.Errorf("AVX2 lanes: ElemsPerIter = %d, want 4", out.ElemsPerIter)
	}
	res, err := fw.Measure(hashes.MurmurTemplate(), translator.Node{V: 0, S: 1, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Error("Measure returned empty counters")
	}
}

func TestParseTemplates(t *testing.T) {
	f, err := ParseTemplates(`
template double u64 (in:stream, out:wstream) {
    const two = 2;
    x = load(in);
    y = mul(x, two);
    store(out, y);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := f.Get("double")
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := New("silver", WithTestElems(1<<12))
	if _, err := fw.Translate(tmpl, translator.Node{V: 1, S: 1, P: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTemplates("template broken {"); err == nil {
		t.Error("malformed template file should error")
	}
}

func TestBoundsClamping(t *testing.T) {
	fw, err := New("silver", WithBounds(hef.Bounds{VMax: 1, SMax: 1, PMax: 1}), WithTestElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	// The candidate generator proposes (1,3,3); the framework must clamp it
	// into the bounds instead of failing.
	opt, err := fw.OptimizeOperator(hashes.MurmurTemplate())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Node.V > 1 || opt.Node.S > 1 || opt.Node.P > 1 {
		t.Errorf("optimum %v exceeds bounds", opt.Node)
	}
}

func TestClampNode(t *testing.T) {
	b := hef.Bounds{VMax: 2, SMax: 2, PMax: 2}
	if got := clampNode(translator.Node{V: 9, S: 9, P: 9}, b); got != (translator.Node{V: 2, S: 2, P: 2}) {
		t.Errorf("clampNode = %v", got)
	}
	if got := clampNode(translator.Node{V: 0, S: 0, P: 1}, b); !got.Valid() {
		t.Errorf("clampNode must return a valid node, got %v", got)
	}
}

// TestMemoWarmSearchAllocs guards the memo's link index: a search whose
// every candidate is already measured finds each node in its evaluator's
// link table, reads its cost from the memo entry without copying it, and
// translates nothing, so it allocates a few dozen objects — the Result it
// returns, the walk's state and the evaluator — rather than the ~143k a
// search that translates (and renders) every candidate did, and it borrows
// no simulator: a framework that only runs such searches never builds one.
func TestMemoWarmSearchAllocs(t *testing.T) {
	cache := memo.NewCache()
	tmpl := hashes.MurmurTemplate()
	search := func(fw *Framework) {
		if _, err := fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{Memo: cache}); err != nil {
			t.Fatal(err)
		}
	}
	newFW := func() *Framework {
		fw, err := New("silver", WithTestElems(1<<12))
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	search(newFW()) // prime the memo and its links
	fw := newFW()
	allocs := testing.AllocsPerRun(5, func() { search(fw) })
	t.Logf("memo-warm murmur search: %.0f allocs/op", allocs)
	if allocs > 40 {
		t.Fatalf("memo-warm murmur search allocated %.0f objects/op, want <= 40", allocs)
	}
	if n := len(idleSims(fw)); n != 0 {
		t.Fatalf("memo-warm searches left %d simulators, want none built", n)
	}
}

// TestMemoWarmSearchCopiesNothing: a memo-warm search reads its costs from
// the memo's entries in place, and leaves every entry byte-identical. Run
// still hands out a private copy: scaling and editing it, as the
// experiment harness scales stage Results, changes neither the entry nor
// the next hit, nor the next search.
func TestMemoWarmSearchCopiesNothing(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.NewCache()
	tmpl := hashes.MurmurTemplate()
	search := func() *Optimized {
		opt, err := fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{Memo: cache})
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	// entries hashes every stored Result, fields and slices alike.
	entries := func() map[memo.Key][sha256.Size]byte {
		m := map[memo.Key][sha256.Size]byte{}
		cache.Range(func(k memo.Key, r *uarch.Result) { m[k] = sha256.Sum256(fmt.Appendf(nil, "%#v", *r)) })
		return m
	}
	cold := search()
	before, hits := entries(), cache.Stats().Hits
	warm := search()
	if got := cache.Stats().Hits - hits; got != uint64(warm.Search.Tested) {
		t.Fatalf("the warm search hit %d times for %d evaluations", got, warm.Search.Tested)
	}
	if !reflect.DeepEqual(entries(), before) {
		t.Fatal("a memo-warm search changed a memo entry")
	}
	if !reflect.DeepEqual(warm.Search, cold.Search) {
		t.Fatal("the memo-warm search diverges from the cold one")
	}

	res, err := fw.MeasureWith(tmpl, warm.Node, cache)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Clone()
	res.Scale(3)
	res.Cycles++
	res.Elems = 0
	res.PortBusy[0]++
	if again, err := fw.MeasureWith(tmpl, warm.Node, cache); err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("the hit after an edit of Run's Result diverges (err %v)", err)
	}
	if !reflect.DeepEqual(entries(), before) {
		t.Fatal("an edit of Run's Result reached the memo entry")
	}
	if again := search(); !reflect.DeepEqual(again.Search, cold.Search) {
		t.Fatal("the search after an edit of Run's Result diverges")
	}
}

// TestMemoWarmSearchTranslatesNothing: a search whose every node is
// linked in the memo returns without translating its winner. The first
// Source or Program call translates it, once, even when Source is called
// from several goroutines at a time, and the code equals an explicit
// translation of the optimal node.
func TestMemoWarmSearchTranslatesNothing(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.NewCache()
	tmpl := hashes.MurmurTemplate()
	search := func() *Optimized {
		opt, err := fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{Memo: cache})
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	search() // prime the memo and its links
	opt := search()
	if opt.out != nil {
		t.Fatal("a memo-warm search translated its winner before anyone asked")
	}
	want, err := fw.Translate(tmpl, opt.Node)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]string, 4)
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srcs[i] = opt.Source()
		}()
	}
	wg.Wait()
	for i, src := range srcs {
		if src != want.Source() {
			t.Errorf("concurrent Source call %d differs from Translate at %v", i, opt.Node)
		}
	}
	if !reflect.DeepEqual(opt.Program(), want.Program) {
		t.Errorf("Program differs from Translate at %v", opt.Node)
	}
	if opt.Program() != opt.Program() {
		t.Error("Program translated more than once")
	}
}

// TestOptimizedTranslatesMeasuredTemplate: the code an Optimized returns is
// that of the template its search measured, even when the caller edits its
// own template between the search and the first Source or Program call.
func TestOptimizedTranslatesMeasuredTemplate(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	tmpl := hashes.MurmurTemplate()
	measured := tmpl.Clone()
	opt, err := fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{Memo: memo.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Consts["m"]++
	tmpl.Body[1].Op = "add"
	want, err := fw.Translate(measured, opt.Node)
	if err != nil {
		t.Fatal(err)
	}
	if edited, err := fw.Translate(tmpl, opt.Node); err != nil || edited.Source() == want.Source() {
		t.Fatalf("the edit leaves the code unchanged (err %v)", err)
	}
	if opt.Source() != want.Source() {
		t.Errorf("Source after an edit of the caller's template:\n%s\nwant the measured template's:\n%s", opt.Source(), want.Source())
	}
	if !reflect.DeepEqual(opt.Program(), want.Program) {
		t.Error("Program after an edit of the caller's template differs from the measured template's")
	}
}
