package hef

import (
	"fmt"

	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Evaluator measures one candidate node's execution time. The framework's
// optimizer only compares times, so any monotone cost works; the production
// implementation is SimEvaluator.
type Evaluator interface {
	// Evaluate returns the seconds-per-element cost of the node.
	Evaluate(n Node) (float64, error)
}

// ForkableEvaluator is an Evaluator that can clone itself for concurrent
// use. Fork must return an evaluator that measures nodes identically to the
// receiver (same template, machine model, test size, perturbation) but
// shares no mutable state with it, so forks may run on different goroutines.
type ForkableEvaluator interface {
	Evaluator
	Fork() Evaluator
}

// BatchForks always reports 0: the search measures every node from a
// freshly warmed hierarchy and forks no cache state.
//
// Deprecated: kept for callers that still read the counter.
func BatchForks() uint64 { return 0 }

// SimEvaluator translates the operator template at a node and times it on
// the microarchitecture simulator — the analogue of the paper's
// compile-and-run test step (Algorithm 2 lines 4-5).
type SimEvaluator struct {
	cpu     *isa.CPU
	tmpl    *hid.Template
	width   isa.Width
	elems   int64
	perturb *uarch.Perturb
	memo    *memo.Cache

	// sim is built by the first Run that has to translate: an evaluator
	// whose every node is already linked in the memo never allocates one.
	sim *uarch.Sim

	// Evaluations counts Evaluate calls, for pruning-savings reports.
	Evaluations int
}

// DefaultTestElems is the synthetic test size for one evaluation: large
// enough to reach steady state, small enough to keep the offline search
// fast.
const DefaultTestElems = 1 << 14

// NewSimEvaluator builds an evaluator for tmpl on cpu at the given SIMD
// width (0 selects AVX-512). elems <= 0 selects DefaultTestElems.
func NewSimEvaluator(cpu *isa.CPU, tmpl *hid.Template, width isa.Width, elems int64) *SimEvaluator {
	if width == 0 {
		width = isa.W512
	}
	if elems <= 0 {
		elems = DefaultTestElems
	}
	return &SimEvaluator{cpu: cpu, tmpl: tmpl, width: width, elems: elems}
}

// simulator returns the evaluator's simulator, building it on first use
// with the perturbation set so far.
func (e *SimEvaluator) simulator() *uarch.Sim {
	if e.sim == nil {
		e.sim = uarch.NewSim(e.cpu)
		e.sim.SetPerturb(e.perturb)
	}
	return e.sim
}

// SetMemo attaches a content-addressed measurement cache (nil detaches).
// Runs whose fingerprint — machine model, perturbation, translated program,
// iteration count, warmed regions — is already cached return the stored
// Result without simulating, and a node whose translation inputs are
// already linked to that fingerprint (memo.TranslationKey) returns it
// without translating either. The cache is concurrency-safe and is shared
// with forks, so a parallel search populates it for later operators,
// trials, and benchmark stages.
func (e *SimEvaluator) SetMemo(c *memo.Cache) { e.memo = c }

// SetPerturb installs a fault-injection model on the evaluator's simulator
// (nil removes it); see uarch.Sim.SetPerturb. The sensitivity driver uses
// this to re-run the search on perturbed machines.
func (e *SimEvaluator) SetPerturb(p *uarch.Perturb) {
	e.perturb = p
	if e.sim != nil {
		e.sim.SetPerturb(p)
	}
}

// Fork implements ForkableEvaluator: the clone measures nodes identically
// (same CPU model, template, width, test size, and perturbation) on its own
// fresh simulator, so forks are safe to run concurrently. Each run resets
// the cache hierarchy before measuring, so a fresh simulator times nodes
// exactly like the original. The memo is shared; the fork's Evaluations
// counter starts at zero.
func (e *SimEvaluator) Fork() Evaluator {
	f := NewSimEvaluator(e.cpu, e.tmpl, e.width, e.elems)
	f.SetPerturb(e.perturb)
	f.SetMemo(e.memo)
	return f
}

// Evaluate implements Evaluator.
func (e *SimEvaluator) Evaluate(n Node) (float64, error) {
	res, err := e.Run(n)
	if err != nil {
		return 0, err
	}
	if res.Elems == 0 {
		return 0, fmt.Errorf("hef: node %v processed no elements", n)
	}
	return res.Seconds() / float64(res.Elems), nil
}

// Run translates and simulates the node, returning the full counter set
// (used by the experiment harness for the paper's tables).
func (e *SimEvaluator) Run(n Node) (*uarch.Result, error) {
	// The translation key is computed on every call, not once per
	// evaluator, so a template edited between runs (SetRegion) gets a fresh
	// key rather than a stale link.
	var tkey memo.Key
	useMemo := e.memo != nil
	if useMemo {
		tkey = memo.TranslationKey(memo.ProtoEvaluator, e.cpu, e.perturb, e.tmpl, n, e.width, e.elems)
		if res, ok := e.memo.GetLinked(tkey); ok {
			e.Evaluations++
			return res, nil
		}
	}
	sim := e.simulator()
	if err := sim.Err(); err != nil {
		return nil, err
	}
	out, err := translator.Translate(e.tmpl, n, translator.Options{Width: e.width, CPU: e.cpu})
	if err != nil {
		return nil, err
	}
	iters := e.elems / int64(out.ElemsPerIter)
	if iters < 1 {
		iters = 1
	}
	// The plan's protocol is a pure function of the fingerprinted inputs,
	// so a cached Result is exact, not approximate. Links are recorded only
	// past the Err check above: a machine model whose hierarchy cannot be
	// built never gets a link that would skip it.
	plan := memo.Plan{Proto: memo.ProtoEvaluator, Prog: out.Program, Iters: iters, Warm: e.warmRanges()}
	var key memo.Key
	if useMemo {
		key = plan.Key(e.cpu, e.perturb)
		if res, ok := e.memo.Get(key); ok {
			e.memo.Link(tkey, key)
			e.Evaluations++
			return res, nil
		}
	}
	res, err := plan.Measure(sim)
	if err != nil {
		return nil, err
	}
	e.Evaluations++
	if useMemo {
		e.memo.Put(key, res)
		e.memo.Link(tkey, key)
	}
	return res, nil
}

// warmRanges lists the regions Run warms before measuring: every
// random-access template parameter that fits in the LLC, in parameter
// order. The list is part of the memo fingerprint.
func (e *SimEvaluator) warmRanges() []memo.WarmRange {
	var w []memo.WarmRange
	for _, p := range e.tmpl.Params {
		if p.Pattern == hid.RandomRegion && p.Region > 0 && p.Region <= uint64(e.cpu.LLC.SizeBytes) {
			w = append(w, memo.WarmRange{Base: translator.ParamBase(e.tmpl, p.Name), Region: p.Region})
		}
	}
	return w
}
