package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"hef/internal/core"
	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// opSlot is one operator a search workload optimizes: a built-in template
// constructor at a size (region bytes, or a filter's predicate count).
type opSlot struct {
	name string
	size uint64
	mk   func(size uint64) *hid.Template
}

func murmurSlot() opSlot {
	return opSlot{name: "murmur", mk: func(uint64) *hid.Template { return hashes.MurmurTemplate() }}
}

func crc64Slot() opSlot {
	return opSlot{name: "crc64", mk: func(uint64) *hid.Template { return hashes.CRC64Template() }}
}

func filterSlot(preds uint64) opSlot {
	return opSlot{fmt.Sprintf("filter-%d", preds), preds, func(n uint64) *hid.Template { return engine.FilterTemplate(int(n)) }}
}

func probeSlot(name string, bytes uint64) opSlot {
	return opSlot{name, bytes, engine.ProbeTemplate}
}

func aggSlot(name string, bytes uint64) opSlot {
	return opSlot{name, bytes, engine.GroupAggTemplate}
}

func bloomSlot(name string, bits uint64) opSlot {
	return opSlot{name, bits / 8, engine.BloomTemplate}
}

// searchParams sizes a search workload.
type searchParams struct {
	slots []opSlot
	elems int64
	// parallel is OptimizeOptions.Parallel on the timed searches: 2 is the
	// hefopt path on this benchmark's 2-core reference machine, 0 the
	// library (quickstart) path.
	parallel  int
	minRounds int
	setupReps int
}

// coldParams: every round searches each operator with a fresh memo. The
// region sizes straddle the modelled L2 (1 MiB) and LLC (11 MiB silver);
// regions that fit the LLC are warmed line by line before every
// measurement. The sizes are fixed: a search's path length jumps with its
// region size (jittering sizes by ±1/8 moved single operators' times by up
// to 80% from seed to seed), so a seed only reorders a round.
func coldParams() searchParams {
	return searchParams{
		slots: []opSlot{
			murmurSlot(), crc64Slot(),
			filterSlot(1), filterSlot(2), filterSlot(3),
			probeSlot("probe-1m", 1<<20), probeSlot("probe-8m", 8<<20), probeSlot("probe-32m", 32<<20),
			aggSlot("agg-16k", 16<<10), aggSlot("agg-64k", 64<<10), aggSlot("agg-4m", 4<<20),
			bloomSlot("bloom-1mbit", 1<<20), bloomSlot("bloom-64mbit", 1<<26),
		},
		elems: 2048, parallel: 2, minRounds: 3, setupReps: 51,
	}
}

// warmParams: hefopt's six built-in operators at their default sizes,
// searched repeatedly against one memo the setup primed.
func warmParams() searchParams {
	return searchParams{
		slots: []opSlot{
			murmurSlot(), crc64Slot(), filterSlot(2),
			probeSlot("probe-32m", 32<<20), aggSlot("agg-64k", 64<<10), bloomSlot("bloom-8mbit", 1<<23),
		},
		elems: 2048, parallel: 0, minRounds: 3, setupReps: 3,
	}
}

// searchOp is one slot's template.
type searchOp struct {
	name string
	tmpl *hid.Template
	// key prefixes the op's golden keys; it names everything the search
	// result depends on.
	key string
}

// searchRig is the fixture of a search workload.
type searchRig struct {
	cpu   *isa.CPU
	width isa.Width
	fw    *core.Framework
	elems int64
	ops   []searchOp
	// shared is search-warm's primed memo; nil gives each search a fresh one.
	shared *memo.Cache
	// last holds each op's most recent search, for the post-run checks.
	last map[string]*hef.Result
}

func newSearchRig(p searchParams, rng *rand.Rand, seed uint64) (*searchRig, error) {
	const cpuName = "silver"
	fw, err := core.New(cpuName, core.WithTestElems(p.elems))
	if err != nil {
		return nil, err
	}
	r := &searchRig{cpu: fw.CPU(), width: fw.CPU().NativeWidth(), fw: fw, elems: p.elems, last: map[string]*hef.Result{}}
	for _, s := range p.slots {
		r.ops = append(r.ops, searchOp{
			name: s.name,
			tmpl: s.mk(s.size),
			key:  fmt.Sprintf("search %s elems=%d %s@%d", cpuName, p.elems, s.name, s.size),
		})
	}
	if seed != 1 {
		rng.Shuffle(len(r.ops), func(i, j int) { r.ops[i], r.ops[j] = r.ops[j], r.ops[i] })
	}
	return r, nil
}

// orderStream is the rng stream that orders a round's searches.
const orderStream = 1

func runSearch(b *bench, p searchParams, cold bool) error {
	var rig *searchRig
	setups, err := b.timeSetups(p.setupReps, func() error {
		var err error
		if rig, err = newSearchRig(p, b.rng(orderStream), b.seed); err != nil {
			return err
		}
		if !cold {
			// Prime the memo with one cold round on the parallel engine; the
			// timed serial rounds must reproduce its traces exactly.
			rig.shared = memo.NewCache()
			for _, op := range rig.ops {
				opt, err := rig.fw.OptimizeOperatorContext(context.Background(), op.tmpl,
					core.OptimizeOptions{Parallel: 2, Memo: rig.shared})
				b.op(b.checkSearch(op, opt, err))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	budget := b.budget
	if b.trace {
		budget /= 2
	}
	plain := rig.pass(b, p, budget, nil)
	rig.checkMeasure(b)
	b.emitEndToEnd(setups, plain)
	b.line("rounds", float64(plain.rounds), "count")
	if !b.trace {
		return nil
	}
	rec := newRecorder()
	traced := rig.pass(b, p, budget, rec)
	traced.allocsPerTranslate = rig.translateAllocs()
	b.emitPerLayer(plain, traced, rec.snapshot())
	return nil
}

// pass runs rounds — each op searched once — until the next would overrun
// the budget, and at least p.minRounds. A non-nil rec runs the traced
// reconstruction of the search instead of core's.
func (r *searchRig) pass(b *bench, p searchParams, budget time.Duration, rec *recorder) *pass {
	out := startPass()
	deadline := out.from.at.Add(budget)
	var rounds []float64
	var st evalStats
	for n := 0; n < p.minRounds || time.Until(deadline).Seconds() >= rounds[n-1]; n++ {
		t0 := time.Now()
		sc, endRound := rec.root(fmt.Sprintf("round %d", n)).span("bench", "round")
		for _, op := range r.ops {
			cache := r.shared
			if cache == nil {
				cache = memo.NewCache()
			}
			t, c := time.Now(), processCPU()
			var res *hef.Result
			var err error
			if rec == nil {
				var opt *core.Optimized
				opt, err = r.fw.OptimizeOperatorContext(context.Background(), op.tmpl,
					core.OptimizeOptions{Parallel: p.parallel, Memo: cache})
				if opt != nil {
					res = opt.Search
				}
			} else {
				res, err = r.tracedSearch(sc.withReq(fmt.Sprintf("round %d %s", n, op.name)), op, p.parallel, cache, &st)
			}
			out.addOp(op.name, time.Since(t), processCPU()-c)
			ok := err == nil && b.checkResult(op, res)
			if err != nil {
				b.failf("%s: %v", op.key, err)
			}
			b.op(ok)
			out.ops++
			if ok {
				r.last[op.name] = res
			}
		}
		endRound()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	out.stop()
	out.finishFastest()
	out.simAccesses, out.llcHits, out.llcMisses = st.accesses.Load(), st.llcHits.Load(), st.llcMisses.Load()
	out.rounds = len(rounds)
	return out
}

// checkSearch checks one setup search made through core.
func (b *bench) checkSearch(op searchOp, opt *core.Optimized, err error) bool {
	if err != nil || opt == nil {
		b.failf("%s: %v", op.key, err)
		return false
	}
	return b.checkResult(op, opt.Search)
}

// checkResult checks a completed search against the goldens and against
// every earlier search of the same op in this run.
func (b *bench) checkResult(op searchOp, res *hef.Result) bool {
	if res.Partial {
		b.failf("%s: search stopped early", op.key)
		return false
	}
	ok := b.check(op.key+" best", res.Best.String())
	return b.check(op.key+" trace", traceDigest(res)) && ok
}

// traceDigest is the SHA-256 of every step of a search walk, with the
// measured times as exact bit patterns.
func traceDigest(res *hef.Result) string {
	h := sha256.New()
	for _, st := range res.Trace {
		fmt.Fprintf(h, "%v %x %v %t\n", st.Node, math.Float64bits(st.Seconds), st.Parent, st.Winner)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkMeasure re-measures each op's optimum without a memo: the fresh
// simulation must reproduce the search's BestSeconds exactly.
func (r *searchRig) checkMeasure(b *bench) {
	for _, op := range r.ops {
		res := r.last[op.name]
		if res == nil {
			continue
		}
		m, err := r.fw.MeasureWith(op.tmpl, res.Best, nil)
		ok := err == nil && m.Elems > 0 && m.Seconds()/float64(m.Elems) == res.BestSeconds
		if !ok {
			b.failf("%s: Measure at %v = %v (err %v), search BestSeconds %v", op.key, res.Best, m, err, res.BestSeconds)
		}
		b.op(ok)
	}
}

// tracedSearch rebuilds core.Framework.OptimizeOperatorContext from
// exported calls, with a span around each call into a layer.
func (r *searchRig) tracedSearch(sc scope, op searchOp, parallel int, cache *memo.Cache, st *evalStats) (*hef.Result, error) {
	osc, end := sc.span("core", "OptimizeOperator")
	defer end()
	initial, err := hef.InitialNode(r.cpu, op.tmpl, r.width)
	if err != nil {
		return nil, err
	}
	if b := hef.DefaultBounds; initial.V > b.VMax || initial.S > b.SMax || initial.P > b.PMax {
		return nil, fmt.Errorf("initial node %v outside the default bounds", initial)
	}
	hsc, endSearch := osc.span("hef", "SearchContext")
	ev := &tracedEval{cpu: r.cpu, tmpl: op.tmpl, width: r.width, elems: r.elems,
		sim: uarch.NewSim(r.cpu), memo: cache, sc: hsc, st: st}
	res, err := hef.SearchContext(context.Background(), ev, initial, hef.DefaultBounds, hef.SearchOpts{Workers: parallel})
	endSearch()
	if err != nil {
		return nil, err
	}
	_, endT := osc.span("translator", "Translate")
	_, err = translator.Translate(op.tmpl, res.Best, translator.Options{Width: r.width, CPU: r.cpu})
	endT()
	return res, err
}

// evalStats accumulates the simulated cache traffic of a traced pass.
type evalStats struct {
	accesses, llcHits, llcMisses atomic.Uint64
}

// tracedEval replays hef.SimEvaluator.Run's measurement protocol with a
// span around each call: translate, fingerprint, memo lookup, hierarchy
// reset and warm, the throwaway and the measured simulation, memo store.
type tracedEval struct {
	cpu   *isa.CPU
	tmpl  *hid.Template
	width isa.Width
	elems int64
	sim   *uarch.Sim
	memo  *memo.Cache
	sc    scope
	st    *evalStats
}

// Fork implements hef.ForkableEvaluator: the fork has its own simulator and
// records on its own lane.
func (e *tracedEval) Fork() hef.Evaluator {
	f := *e
	f.sim = uarch.NewSim(e.cpu)
	f.sc = e.sc.forLane()
	return &f
}

// Evaluate implements hef.Evaluator.
func (e *tracedEval) Evaluate(n hef.Node) (float64, error) {
	sc, end := e.sc.span("hef", "Evaluate")
	defer end()
	res, err := e.run(sc, n)
	if err != nil {
		return 0, err
	}
	if res.Elems == 0 {
		return 0, fmt.Errorf("node %v processed no elements", n)
	}
	return res.Seconds() / float64(res.Elems), nil
}

func (e *tracedEval) run(sc scope, n hef.Node) (*uarch.Result, error) {
	if err := e.sim.Err(); err != nil {
		return nil, err
	}
	_, end := sc.span("translator", "Translate")
	out, err := translator.Translate(e.tmpl, n, translator.Options{Width: e.width, CPU: e.cpu})
	end()
	if err != nil {
		return nil, err
	}
	iters := max(e.elems/int64(out.ElemsPerIter), 1)
	warm := warmRanges(e.cpu, e.tmpl)
	_, end = sc.span("memo", "Fingerprint")
	key := memo.Fingerprint(memo.ProtoEvaluator, e.cpu, nil, out.Program, iters, warm)
	end()
	_, end = sc.span("memo", "Cache.Get")
	res, ok := e.memo.Get(key)
	end()
	if ok {
		return res, nil
	}
	hier := e.sim.Hierarchy()
	_, end = sc.span("cache", "Hierarchy.Reset+Warm")
	hier.Reset()
	for _, w := range warm {
		hier.Warm(w.Base, w.Region)
	}
	end()
	_, end = sc.span("uarch", "Sim.Run (settle)")
	_, err = e.sim.Run(out.Program, iters)
	end()
	if err != nil {
		return nil, err
	}
	_, end = sc.span("uarch", "Sim.Run")
	res, err = e.sim.Run(out.Program, iters)
	end()
	if err != nil {
		return nil, err
	}
	c := res.Cache
	e.st.accesses.Add(c.L1Hits + c.L1Misses)
	e.st.llcHits.Add(c.LLCHits)
	e.st.llcMisses.Add(c.LLCMisses)
	_, end = sc.span("memo", "Cache.Put")
	e.memo.Put(key, res)
	end()
	return res, nil
}

// warmRanges lists the regions SimEvaluator warms: every random-access
// parameter that fits in the LLC, in parameter order.
func warmRanges(cpu *isa.CPU, tmpl *hid.Template) []memo.WarmRange {
	var w []memo.WarmRange
	for _, p := range tmpl.Params {
		if p.Pattern == hid.RandomRegion && p.Region > 0 && p.Region <= uint64(cpu.LLC.SizeBytes) {
			w = append(w, memo.WarmRange{Base: translator.ParamBase(tmpl, p.Name), Region: p.Region})
		}
	}
	return w
}

// translateAllocs translates every node of each op's last search once,
// serially, and returns the heap allocations per call.
func (r *searchRig) translateAllocs() float64 {
	var m0, m1 runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&m0)
	for _, op := range r.ops {
		res := r.last[op.name]
		if res == nil {
			continue
		}
		for _, st := range res.Trace {
			if _, err := translator.Translate(op.tmpl, st.Node, translator.Options{Width: r.width, CPU: r.cpu}); err == nil {
				calls++
			}
		}
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(calls))
}
