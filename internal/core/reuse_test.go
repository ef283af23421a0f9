package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hef/internal/engine"
	"hef/internal/experiments"
	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/obs"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// reuseOps are hefopt's six operators, in hefopt's order.
var reuseOps = []string{"murmur", "crc64", "probe", "filter", "agg", "bloom"}

// reuseOpts keeps the differential quick: small tests, a 4x4x4 space.
var reuseOpts = []Option{WithTestElems(1 << 9), WithBounds(hef.Bounds{VMax: 3, SMax: 3, PMax: 4})}

// searchJSON searches op on fw without a memo, so every evaluation runs on
// a simulator the framework lends, and returns obs.SearchJSON of the walk.
func searchJSON(t *testing.T, fw *Framework, op string, parallel int) []byte {
	tmpl, err := experiments.OpTemplate(op)
	if err != nil {
		t.Error(err)
		return nil
	}
	opt, err := fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{Parallel: parallel})
	if err != nil {
		t.Errorf("%s parallel %d: %v", op, parallel, err)
		return nil
	}
	data, err := obs.SearchJSON(opt.Search)
	if err != nil {
		t.Error(err)
	}
	return data
}

// TestFrameworkReuseMatchesFresh extends TestReusedSimulatorMatchesFresh
// (internal/experiments) from stage plans to whole searches: one Framework
// searching all six hefopt operators, forward and then in reverse, at
// Parallel 1 and 2 — and the same searches as concurrent calls on one
// Framework — must produce the search bytes of a fresh Framework per
// search.
func TestFrameworkReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("48 searches")
	}
	newFW := func() *Framework {
		fw, err := New("silver", reuseOpts...)
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	type run struct {
		op       string
		parallel int
	}
	var runs []run
	for _, parallel := range []int{1, 2} {
		for _, op := range reuseOps {
			runs = append(runs, run{op, parallel})
		}
	}
	want := map[run][]byte{}
	for _, r := range runs {
		want[r] = searchJSON(t, newFW(), r.op, r.parallel)
	}
	check := func(how string, r run, got []byte) {
		if !bytes.Equal(got, want[r]) {
			t.Errorf("%s: %s at parallel %d diverges from a fresh framework", how, r.op, r.parallel)
		}
	}

	t.Run("sequential", func(t *testing.T) {
		fw := newFW()
		for _, parallel := range []int{1, 2} {
			order := slices.Clone(reuseOps)
			for pass := 0; pass < 2; pass++ {
				for _, op := range order {
					check(fmt.Sprintf("pass %d", pass), run{op, parallel}, searchJSON(t, fw, op, parallel))
				}
				slices.Reverse(order)
			}
		}
		if len(idleSims(fw)) == 0 {
			t.Error("the framework kept no simulator for later calls")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		fw := newFW()
		got := make([][]byte, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = searchJSON(t, fw, r.op, r.parallel)
			}()
		}
		wg.Wait()
		for i, r := range runs {
			check("concurrent", r, got[i])
		}
	})
}

// TestMeasureWithReusesSimulators: once warmed up, repeated memo-less
// MeasureWith calls on one Framework allocate less per call than a single
// silver LLC tag array, so none of them builds a simulator.
func TestMeasureWithReusesSimulators(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	tmpl := engine.ProbeTemplate(1 << 20) // warmed before every measurement
	node := translator.Node{V: 1, S: 1, P: 2}
	measure := func() {
		if _, err := fw.MeasureWith(tmpl, node, nil); err != nil {
			t.Fatal(err)
		}
	}
	measure()
	measure()
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		measure()
	}
	runtime.ReadMemStats(&after)
	llc := fw.CPU().LLC
	tagBytes := uint64(llc.SizeBytes/llc.LineBytes) * 8
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("MeasureWith: %d B/call; silver LLC tag array %d B", perCall, tagBytes)
	if perCall >= tagBytes {
		t.Fatalf("MeasureWith allocated %d B/call, want < %d (one LLC tag array)", perCall, tagBytes)
	}
}

// TestPanickedSimulatorIsDropped: a simulator whose measurement panicked is
// never lent again, by a search (which recovers the panic) or by
// MeasureWith (which passes it on), while healthy simulators go back to the
// framework.
func TestPanickedSimulatorIsDropped(t *testing.T) {
	fw, err := New("silver", WithTestElems(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	tmpl := hashes.MurmurTemplate()
	broken := &uarch.Sim{} // no hierarchy: the first measurement panics

	fw.sims.Push(broken)
	_, err = fw.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{})
	if pe := (*hef.PanicError)(nil); !errors.As(err, &pe) {
		t.Fatalf("search on a broken simulator: err = %v, want a *hef.PanicError", err)
	}
	if n := len(idleSims(fw)); n != 0 {
		t.Fatalf("the panicked simulator went back to the framework: %d kept", n)
	}

	node := translator.Node{V: 1, S: 1, P: 1}
	if _, err := fw.MeasureWith(tmpl, node, nil); err != nil {
		t.Fatal(err)
	}
	healthy := idleSims(fw)
	if len(healthy) != 1 {
		t.Fatalf("framework keeps %d simulators after one measurement, want 1", len(healthy))
	}
	fw.sims.Push(broken)
	if !panics(func() { _, _ = fw.MeasureWith(tmpl, node, nil) }) {
		t.Fatal("MeasureWith on a broken simulator did not panic")
	}
	if got := idleSims(fw); !slices.Equal(got, healthy) {
		t.Fatalf("after the panic the framework keeps %v, want only the healthy simulator %v", got, healthy)
	}
}

// idleSims lists the simulators on fw's stack, bottom first, leaving the
// stack as it was.
func idleSims(fw *Framework) []*uarch.Sim {
	var sims []*uarch.Sim
	for sim := fw.sims.Pop(); sim != nil; sim = fw.sims.Pop() {
		sims = append(sims, sim)
	}
	slices.Reverse(sims)
	for _, sim := range sims {
		fw.sims.Push(sim)
	}
	return sims
}

func panics(f func()) (ok bool) {
	defer func() { ok = recover() != nil }()
	f()
	return false
}
