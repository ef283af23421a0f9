// Package core composes the hybrid execution framework end to end,
// mirroring the architecture of the paper's Fig. 4: a preprocessing phase
// (description tables, operator templates, processor configuration), a
// front-end (candidate generator + translator), and an optimizer (the
// test-based pruning search, with the microarchitecture simulator standing
// in for compile-and-measure). It is the implementation behind the public
// hef package at the module root.
package core

import (
	"context"
	"errors"
	"sync"

	"hef/internal/experiments"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Framework is a configured HEF instance for one target processor. It owns
// the simulators its searches and measurements run on: a call pops one from
// the framework's stack as an evaluation first needs it and pushes it back
// when that evaluation completes, so later evaluations and calls reuse its
// hierarchy, warmed images and register slab. Calls may run concurrently; no
// two evaluations share a simulator.
type Framework struct {
	cpu    *isa.CPU
	width  isa.Width
	bounds hef.Bounds
	elems  int64

	// machine hashes the CPU model's part of every evaluator's link
	// prefix once, for all the framework's searches.
	machine *hef.Machine
	// sims holds the simulators no evaluation is using.
	sims hef.SimStack
}

// newEvaluator returns an evaluator for tmpl that measures on the
// framework's simulators.
func (f *Framework) newEvaluator(tmpl *hid.Template, c *memo.Cache) *hef.SimEvaluator {
	eval := f.machine.NewSimEvaluator(tmpl, f.width, f.elems)
	eval.SetMemo(c)
	eval.SetSims(&f.sims)
	return eval
}

// Option configures a Framework.
type Option func(*Framework)

// WithWidth selects the SIMD width (default AVX-512).
func WithWidth(w isa.Width) Option { return func(f *Framework) { f.width = w } }

// WithBounds overrides the search-space bounds.
func WithBounds(b hef.Bounds) Option { return func(f *Framework) { f.bounds = b } }

// WithTestElems overrides the per-evaluation synthetic test size.
func WithTestElems(n int64) Option { return func(f *Framework) { f.elems = n } }

// New builds a framework for the named CPU: "silver" or "gold" (the
// paper's testbeds), or "neoverse" / "zen" (the other microarchitectures
// its background discusses). The SIMD width defaults to the part's native
// width (AVX-512, Neon 128-bit, or AVX2 respectively).
func New(cpuName string, opts ...Option) (*Framework, error) {
	cpu, err := isa.ByName(cpuName)
	if err != nil {
		return nil, err
	}
	f := &Framework{cpu: cpu, width: cpu.NativeWidth(), bounds: hef.DefaultBounds, elems: hef.DefaultTestElems,
		machine: hef.NewMachine(cpu)}
	for _, o := range opts {
		o(f)
	}
	return f, nil
}

// CPU returns the processor model the framework optimises for.
func (f *Framework) CPU() *isa.CPU { return f.cpu }

// Optimized is the outcome of the offline phase for one operator: the
// optimal candidate node, the generated code for it, and the search record.
// The code is generated on demand: the first Source or Program call
// translates Template at Node, once, and later calls (concurrent ones
// included) share that translation.
type Optimized struct {
	// Template is the snapshot of the operator template the search
	// measured, taken when the search began; it must not be modified.
	Template *hid.Template
	// Node is the optimal (v, s, p) found by the pruning search.
	Node translator.Node
	// Initial is the candidate generator's starting node.
	Initial translator.Node
	// Search records every tested node, the candidate and end lists, and
	// the pruning savings.
	Search *hef.Result
	// Partial is true when the search was cut short (context done or
	// budget exhausted) and Node is only the best candidate found so far.
	Partial bool

	topts translator.Options
	once  sync.Once
	out   *translator.Output
}

// translate returns the translation of Template at Node, translating it
// on the first call. The search translated Node successfully from these
// very inputs — a linked memo hit was linked only after such a
// translation.
func (o *Optimized) translate() *translator.Output {
	o.once.Do(func() {
		if o.out == nil {
			o.out, _ = translator.Translate(o.Template, o.Node, o.topts)
		}
	})
	return o.out
}

// Source renders the generated C-like code at the optimal node (Fig. 6).
func (o *Optimized) Source() string {
	if out := o.translate(); out != nil {
		return out.Source()
	}
	return ""
}

// Program is the simulator trace at the optimal node.
func (o *Optimized) Program() *uarch.Program {
	if out := o.translate(); out != nil {
		return out.Program
	}
	return nil
}

// SecondsPerElem is the measured per-element cost of the optimum.
func (o *Optimized) SecondsPerElem() float64 { return o.Search.BestSeconds }

// OptimizeOptions tunes OptimizeOperatorContext's degradation behaviour and
// its evaluation pipeline.
type OptimizeOptions struct {
	// Budget caps the number of candidate evaluations (0 = unlimited).
	// When exhausted, the best-so-far optimum is returned together with an
	// error matching errors.Is(err, hef.ErrBudgetExhausted).
	Budget int
	// Parallel is the number of evaluator workers the search measures
	// each frontier on; 0 means 1. The search result is byte-identical for
	// every setting.
	Parallel int
	// Memo, when non-nil, caches candidate measurements by content
	// fingerprint; repeat measurements (re-measuring searched nodes,
	// multi-operator batches sharing a translated program) are served from
	// the cache. See internal/memo.
	Memo *memo.Cache
}

// OptimizeOperator runs HEF's offline phase on one operator template:
// candidate generation from processor and instruction information, then the
// pruning search over translated-and-tested implementations.
func (f *Framework) OptimizeOperator(tmpl *hid.Template) (*Optimized, error) {
	opt, err := f.OptimizeOperatorContext(context.Background(), tmpl, OptimizeOptions{})
	if err != nil {
		return nil, err
	}
	return opt, nil
}

// OptimizeOperatorContext is OptimizeOperator with graceful degradation: the
// search honours ctx cancellation/deadlines and an optional evaluation
// budget. When stopped early it still returns an Optimized for the best node
// found so far — with Partial set on it and on its Search — alongside the
// non-nil reason (ctx.Err(), hef.ErrBudgetExhausted, or a *hef.PanicError
// for a recovered evaluator panic). An already-cancelled context runs no
// evaluation; a cancellation mid-search takes effect at the next search
// frontier. Both return values are nil only when no candidate could be
// evaluated at all.
func (f *Framework) OptimizeOperatorContext(ctx context.Context, tmpl *hid.Template, opts OptimizeOptions) (*Optimized, error) {
	return f.optimize(ctx, f.newEvaluator(tmpl, opts.Memo), opts)
}

// optimize runs the search on eval, which measures its own snapshot of the
// caller's template.
func (f *Framework) optimize(ctx context.Context, eval *hef.SimEvaluator, opts OptimizeOptions) (*Optimized, error) {
	// Read the snapshot the search measures: the caller may edit its own
	// template once the search returns.
	tmpl := eval.Template()
	initial, err := hef.InitialNode(f.cpu, tmpl, f.width)
	if err != nil {
		return nil, err
	}
	if !f.boundsContain(initial) {
		initial = clampNode(initial, f.bounds)
	}
	res, serr := hef.SearchContext(ctx, eval, initial, f.bounds,
		hef.SearchOpts{MaxEvaluations: opts.Budget, Workers: opts.Parallel})
	if res == nil {
		return nil, serr
	}
	opt := &Optimized{
		Template: tmpl,
		Node:     res.Best,
		Initial:  initial,
		Search:   res,
		Partial:  res.Partial,
		topts:    translator.Options{Width: f.width, CPU: f.cpu},
	}
	if res.Tested == 0 {
		// Stopped before the very first evaluation (pre-cancelled context):
		// nothing was measured, so fall back to the candidate generator's
		// initial node as the degraded answer. No evaluation translated it,
		// so translate it now, while a failure can still be returned.
		res.Best, opt.Node = initial, initial
		if opt.out, err = translator.Translate(tmpl, initial, opt.topts); err != nil {
			return nil, err
		}
	}
	return opt, serr
}

// Measured is one operator's offline phase as hefopt and hefd report it:
// the search outcome and the measurements of its purely scalar, purely
// SIMD and optimal implementations.
type Measured struct {
	*Optimized
	// Stopped is the budget exhaustion that cut the search short, or nil:
	// the optimum is then the best found so far.
	Stopped error
	// Scalar, SIMD and Optimum are the measurements of the purely scalar
	// n(0,1,1), the purely SIMD n(1,0,1) and the optimal node.
	Scalar, SIMD, Optimum *uarch.Result
	// Report carries the three measurements as runs labelled "Scalar",
	// "SIMD" and "Optimum", and the search.
	Report *obs.RunReport
}

// OptimizeAndMeasure runs the offline phase on tmpl, measures n(0,1,1),
// n(1,0,1) and the optimum on the search's own evaluator (each a memo hit
// when opts.Memo holds the search's measurement of it) and renders all
// three with the search as an obs.RunReport of the named tool. Budget
// exhaustion is deterministic, so it only sets Stopped; any other stop
// (cancellation, a broken model, a recovered panic) is returned as the
// error.
func (f *Framework) OptimizeAndMeasure(ctx context.Context, tool string, tmpl *hid.Template, opts OptimizeOptions) (*Measured, error) {
	eval := f.newEvaluator(tmpl, opts.Memo)
	opt, err := f.optimize(ctx, eval, opts)
	m := &Measured{Optimized: opt}
	if err != nil {
		if opt == nil || !errors.Is(err, hef.ErrBudgetExhausted) {
			return nil, err
		}
		m.Stopped = err
	}
	name := opt.Template.Name
	rep := obs.NewReport(tool)
	rep.CPU = f.cpu.Name
	rep.Params["op"] = name
	for _, r := range []struct {
		label string
		node  translator.Node
		res   **uarch.Result
	}{
		{"Scalar", translator.Node{V: 0, S: 1, P: 1}, &m.Scalar},
		{"SIMD", translator.Node{V: 1, S: 0, P: 1}, &m.SIMD},
		{"Optimum", opt.Node, &m.Optimum},
	} {
		res, err := eval.Run(r.node)
		if err != nil {
			return nil, err
		}
		*r.res = res
		rep.Runs = append(rep.Runs, obs.RunFromResult(name, r.label, r.node.String(), res, res.Seconds()))
	}
	rep.Search = obs.SearchFromResult(opt.Search)
	m.Report = rep
	return m, nil
}

// OperatorTemplate returns the operator template named op: the built-in
// operator of that name (experiments.OpTemplate) when src is empty,
// otherwise the template of that name in the HID source src.
func OperatorTemplate(op, src string) (*hid.Template, error) {
	if src == "" {
		return experiments.OpTemplate(op)
	}
	f, err := ParseTemplates(src)
	if err != nil {
		return nil, err
	}
	return f.Get(op)
}

// Translate generates code for an explicit candidate node without searching
// (e.g. to inspect the purely scalar or purely SIMD implementations).
func (f *Framework) Translate(tmpl *hid.Template, node translator.Node) (*translator.Output, error) {
	return translator.Translate(tmpl, node, translator.Options{Width: f.width, CPU: f.cpu})
}

// Measure times an explicit candidate node on the simulator.
func (f *Framework) Measure(tmpl *hid.Template, node translator.Node) (*uarch.Result, error) {
	return f.MeasureWith(tmpl, node, nil)
}

// MeasureWith is Measure consulting a measurement memo cache (nil measures
// unconditionally). A node already measured by a memoized search — the
// common case when re-measuring the scalar, SIMD, and optimum flavours
// after OptimizeOperatorContext — is served from the cache.
func (f *Framework) MeasureWith(tmpl *hid.Template, node translator.Node, c *memo.Cache) (*uarch.Result, error) {
	return f.newEvaluator(tmpl, c).Run(node)
}

// ParseTemplates reads an operator-template file (the paper's operator list
// and dictionary) using the built-in description table as the operation
// validator.
func ParseTemplates(src string) (*hid.File, error) {
	return hid.Parse(src, func(op string) bool {
		_, err := isa.Describe(op)
		return err == nil
	})
}

func (f *Framework) boundsContain(n translator.Node) bool {
	return n.V <= f.bounds.VMax && n.S <= f.bounds.SMax && n.P <= f.bounds.PMax
}

func clampNode(n translator.Node, b hef.Bounds) translator.Node {
	if n.V > b.VMax {
		n.V = b.VMax
	}
	if n.S > b.SMax {
		n.S = b.SMax
	}
	if n.P > b.PMax {
		n.P = b.PMax
	}
	if !n.Valid() {
		return translator.Node{V: 1, S: 1, P: 1}
	}
	return n
}

// Version identifies the library release.
const Version = "1.0.0"
