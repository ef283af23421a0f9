package hef

import (
	"fmt"
	"sync"

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
	cpu *isa.CPU
	// tmpl is the evaluator's private snapshot of the template it was
	// built on, shared read-only with its forks.
	tmpl    *hid.Template
	width   isa.Width
	elems   int64
	perturb *uarch.Perturb
	memo    *memo.Cache
	// prefix is the link prefix (memo.LinkKeyer) of the evaluator's
	// measurements, hashed when the evaluator was built or its
	// perturbation last set; a node's link is this prefix and the node.
	prefix memo.Key

	// sims holds the idle simulators the evaluator, its forks and any
	// evaluator given the same stack (SetSims) measure on. A simulator is
	// built only when a Run has to simulate and finds the stack empty: an
	// evaluator whose every node is already in the memo never allocates one.
	sims *SimStack
}

// DefaultTestElems is the synthetic test size for one evaluation: large
// enough to reach steady state, small enough to keep the offline search
// fast.
const DefaultTestElems = 1 << 14

// NewSimEvaluator builds an evaluator for a snapshot of tmpl on cpu at the
// given SIMD width (0 selects AVX-512). elems <= 0 selects DefaultTestElems.
// The evaluator and its forks measure the snapshot, a Clone taken here, so
// editing tmpl afterwards changes neither their measurements nor their
// keys; an edited template needs an evaluator of its own. The CPU model is
// fixed for the life of the evaluator and its forks and must not be
// modified while they are in use: their simulators are built from it, and
// their link prefix hashes it once (a perturbed model is a clone, with
// an evaluator of its own).
func NewSimEvaluator(cpu *isa.CPU, tmpl *hid.Template, width isa.Width, elems int64) *SimEvaluator {
	return NewMachine(cpu).NewSimEvaluator(tmpl, width, elems)
}

// Machine is a CPU model with the part of its evaluators' link prefixes
// that depends on the model alone hashed once (memo.LinkKeyer), for a
// caller that builds many evaluators on one model, as core.Framework does.
// The model must not be modified while the Machine is in use.
type Machine struct {
	cpu   *isa.CPU
	links memo.LinkKeyer
}

// NewMachine hashes cpu's part of the link prefixes of evaluators on it.
func NewMachine(cpu *isa.CPU) *Machine {
	return &Machine{cpu: cpu, links: memo.NewLinkKeyer(memo.ProtoEvaluator, cpu, nil)}
}

// NewSimEvaluator is NewSimEvaluator on the machine's CPU model; only the
// template, width and test size are hashed here.
func (m *Machine) NewSimEvaluator(tmpl *hid.Template, width isa.Width, elems int64) *SimEvaluator {
	if width == 0 {
		width = isa.W512
	}
	if elems <= 0 {
		elems = DefaultTestElems
	}
	e := &SimEvaluator{cpu: m.cpu, tmpl: tmpl.Clone(), width: width, elems: elems, sims: &SimStack{}}
	e.prefix = m.links.Prefix(e.tmpl, width, elems)
	return e
}

// Template returns the snapshot the evaluator measures. It must not be
// modified.
func (e *SimEvaluator) Template() *hid.Template { return e.tmpl }

// SimStack is a concurrency-safe stack of idle simulators for one CPU
// model. Evaluators sharing it pop a simulator for each measurement and push
// it back once the measurement completes, so later measurements reuse its
// hierarchy, warmed image and register slab, and no two concurrent
// measurements share one. The zero value is an empty stack.
type SimStack struct {
	mu   sync.Mutex
	sims []*uarch.Sim
}

// Push adds an idle simulator.
func (s *SimStack) Push(sim *uarch.Sim) {
	s.mu.Lock()
	s.sims = append(s.sims, sim)
	s.mu.Unlock()
}

// Pop removes and returns the most recently pushed simulator, or nil when
// the stack is empty.
func (s *SimStack) Pop() *uarch.Sim {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.sims)
	if n == 0 {
		return nil
	}
	sim := s.sims[n-1]
	s.sims[n-1] = nil
	s.sims = s.sims[:n-1]
	return sim
}

// Measure is the one get-or-simulate step every paper-core measurement
// takes: it returns c's copy of the Result stored under key, or else runs
// plan on a simulator for cpu under perturbation p, popped from the stack
// (or built when the stack is empty), and stores the Result under key. key
// must be plan.Key(cpu, p); a nil c measures every call and ignores key.
// The simulator is off the stack while it measures and is pushed back only
// after a successful measurement, so one whose measurement panics or fails
// is dropped rather than used again: a half-run pipeline is not a clean
// start. Plan.Measure resets the hierarchy first, so any simulator for cpu
// measures exactly like a fresh one.
func (s *SimStack) Measure(c *memo.Cache, key memo.Key, plan *memo.Plan, cpu *isa.CPU, p *uarch.Perturb) (*uarch.Result, error) {
	if res, ok := c.Get(key); ok {
		return res, nil
	}
	sim := s.Pop()
	if sim == nil {
		sim = uarch.NewSim(cpu)
	}
	sim.SetPerturb(p)
	res, err := plan.Measure(sim)
	if err != nil {
		return nil, err
	}
	s.Push(sim)
	c.Put(key, res)
	return res, nil
}

// SetSims makes the evaluator and its later forks measure on the
// simulators of s, which must be built for the evaluator's CPU, instead of
// a stack of their own; core.Framework shares its stack across calls this
// way.
func (e *SimEvaluator) SetSims(s *SimStack) { e.sims = s }

// SetMemo attaches a content-addressed measurement cache (nil detaches).
// Runs whose fingerprint — machine model, perturbation, translated program,
// iteration count, warmed regions — is already cached return the stored
// Result without simulating, and a node whose translation inputs are
// already linked to that fingerprint (the evaluator's link prefix and the
// node, memo.LinkKeyer) returns it without translating either. The cache
// is concurrency-safe and is shared with forks, so a parallel search
// populates it for later operators, trials, and benchmark stages.
func (e *SimEvaluator) SetMemo(c *memo.Cache) { e.memo = c }

// SetPerturb installs a fault-injection model on the simulator of every
// later measurement (nil removes it); see uarch.Sim.SetPerturb. The
// sensitivity analysis uses this to re-run the search on perturbed machines.
// The evaluator keeps a copy of *p, so editing p afterwards changes neither
// its measurements nor its keys. Setting a perturbation re-hashes the link
// prefix from scratch, machine model included.
func (e *SimEvaluator) SetPerturb(p *uarch.Perturb) {
	if p != nil {
		c := *p
		p = &c
	}
	e.perturb = p
	e.prefix = memo.NewLinkKeyer(memo.ProtoEvaluator, e.cpu, p).Prefix(e.tmpl, e.width, e.elems)
}

// Fork implements ForkableEvaluator: the clone measures nodes identically
// (same CPU model, template snapshot, width, test size, and perturbation)
// and shares the receiver's simulator stack, which hands each simulator to
// one measurement at a time, so forks are safe to run concurrently and reuse
// the simulators the others have finished with. Each run resets the cache
// hierarchy before measuring, so any simulator for the CPU times nodes
// exactly like a fresh one. The memo and the link prefix are shared.
func (e *SimEvaluator) Fork() Evaluator {
	return &SimEvaluator{cpu: e.cpu, tmpl: e.tmpl, width: e.width, elems: e.elems,
		perturb: e.perturb, memo: e.memo, prefix: e.prefix, sims: e.sims}
}

// Evaluate implements Evaluator. A linked node's cost is read from the
// memo entry in place, with the expression it would have on a copy, so
// the bits are those of Run's Result.
func (e *SimEvaluator) Evaluate(n Node) (float64, error) {
	if sec, elems, ok := e.memo.LinkedSeconds(e.prefix, n); ok {
		return perElem(n, sec, elems)
	}
	res, err := e.measure(n)
	if err != nil {
		return 0, err
	}
	return perElem(n, res.Seconds(), res.Elems)
}

// perElem is the seconds-per-element cost of node n's Result.
func perElem(n Node, sec float64, elems uint64) (float64, error) {
	if elems == 0 {
		return 0, fmt.Errorf("hef: node %v processed no elements", n)
	}
	return sec / float64(elems), nil
}

// Run translates and simulates the node, returning the full counter set
// (used by the experiment harness for the paper's tables). The Result is
// the caller's own copy.
func (e *SimEvaluator) Run(n Node) (*uarch.Result, error) {
	if res, ok := e.memo.GetLinked(e.prefix, n); ok {
		return res, nil
	}
	return e.measure(n)
}

// measure is Run after a link miss: translate, get or simulate, and link
// the node to the measurement key.
func (e *SimEvaluator) measure(n Node) (*uarch.Result, error) {
	out, err := translator.Translate(e.tmpl, n, translator.Options{Width: e.width, CPU: e.cpu})
	if err != nil {
		return nil, err
	}
	// The plan's protocol is a pure function of the fingerprinted inputs,
	// so a cached Result is exact, not approximate, and a link is recorded
	// only for a Result in hand: a machine model whose hierarchy cannot be
	// built fails in Measure and never gets a link that would skip it.
	plan := memo.NewPlan(memo.ProtoEvaluator, e.cpu, e.tmpl, out, e.elems)
	var key memo.Key
	if e.memo != nil {
		key = plan.Key(e.cpu, e.perturb)
	}
	res, err := e.sims.Measure(e.memo, key, &plan, e.cpu, e.perturb)
	if err != nil {
		return nil, err
	}
	e.memo.Link(e.prefix, n, key)
	return res, nil
}
