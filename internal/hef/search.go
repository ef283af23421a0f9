package hef

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"hef/internal/sched"
)

// Bounds caps the search space, mirroring the v, s, p upper limits of Eq. 1.
type Bounds struct {
	VMax, SMax, PMax int
}

// DefaultBounds allows up to 8 vector statements, 8 scalar statements, and
// packs of 12 — comfortably containing every optimum the paper reports.
var DefaultBounds = Bounds{VMax: 8, SMax: 8, PMax: 12}

// contains reports whether n lies within the bounds.
func (b Bounds) contains(n Node) bool {
	return n.Valid() && n.V <= b.VMax && n.S <= b.SMax && n.P <= b.PMax
}

// Step records one evaluation during the search, for reporting and tests.
type Step struct {
	Node Node
	// Seconds is the measured per-element time.
	Seconds float64
	// Parent is the node whose expansion produced this evaluation.
	Parent Node
	// Winner is true when the node beat its parent and joined the candidate
	// list; false means it was pruned to the end list.
	Winner bool
}

// Result is the outcome of a pruning search.
type Result struct {
	// Best is the optimal node found and BestSeconds its per-element time.
	Best        Node
	BestSeconds float64
	// Initial is the candidate generator's starting node.
	Initial Node
	// Tested counts evaluator invocations (unique nodes evaluated).
	Tested int
	// SpaceSize is the full space per Eq. 2 at the search bounds, for
	// pruning-savings reports.
	SpaceSize int
	// Trace lists every evaluation in order.
	Trace []Step
	// CandidateList holds the winners in discovery order; EndList holds the
	// pruned nodes, mirroring Algorithm 2's two output lists.
	CandidateList []Node
	EndList       []Node
	// Partial is true when the search stopped early — context cancellation,
	// deadline, evaluation budget, or a recovered panic — and Best is only
	// the best node found so far rather than the search's fixed point.
	Partial bool
}

// BestPath returns the chain of winning nodes from the initial node to the
// optimum, following each step's Parent link backwards through the trace —
// the monotonically improving path Algorithm 2's pruning rule guarantees.
// Exporters highlight it when rendering the search walk.
func (r *Result) BestPath() []Node {
	parent := make(map[Node]Node, len(r.Trace))
	for _, st := range r.Trace {
		if st.Winner {
			parent[st.Node] = st.Parent
		}
	}
	var rev []Node
	for n := r.Best; ; {
		rev = append(rev, n)
		p, ok := parent[n]
		if !ok || p == n || len(rev) > len(r.Trace) { // initial node reached (or malformed trace)
			break
		}
		n = p
	}
	path := make([]Node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path
}

// PrunedFraction reports how much of the space the search avoided testing.
func (r *Result) PrunedFraction() float64 {
	if r.SpaceSize == 0 {
		return 0
	}
	f := 1 - float64(r.Tested)/float64(r.SpaceSize)
	if f < 0 {
		return 0
	}
	return f
}

// neighbors returns the one-step transformations of n: ±1 in each of v, s,
// and p (the transformation set of Section IV-C).
func neighbors(n Node) []Node {
	return []Node{
		{V: n.V + 1, S: n.S, P: n.P},
		{V: n.V - 1, S: n.S, P: n.P},
		{V: n.V, S: n.S + 1, P: n.P},
		{V: n.V, S: n.S - 1, P: n.P},
		{V: n.V, S: n.S, P: n.P + 1},
		{V: n.V, S: n.S, P: n.P - 1},
	}
}

// Search runs the pruning optimizer from the initial node: it evaluates the
// neighbours of every candidate, appends those faster than their parent to
// the candidate list, and prunes the rest — their variants are never
// generated or tested (Algorithm 2). The relationship between nodes is a
// strongly-connected graph, so the optimum stays reachable through some
// monotonically improving path even when other paths to it are pruned.
//
// Search runs to completion; SearchContext adds cancellation and budgets.
func Search(eval Evaluator, initial Node, bounds Bounds) (*Result, error) {
	return SearchContext(context.Background(), eval, initial, bounds, SearchOpts{})
}

// SearchContext is Search with graceful degradation: it honours ctx
// cancellation and deadlines, an optional node-evaluation budget, and
// recovers evaluator panics into typed errors.
//
// When the search is cut short — ctx done, budget exhausted, or a panic
// recovered — it returns the best-so-far Result with Partial set alongside a
// non-nil error: ctx.Err() (via errors.Is(err, context.Canceled) or
// context.DeadlineExceeded), ErrBudgetExhausted, or a *PanicError. Only
// evaluator errors (a broken template or machine model) return a nil Result.
//
// The walk proceeds one frontier (wave) at a time. Algorithm 2's candidate
// queue is FIFO, so its pop order equals generation order, and which
// neighbours get evaluated (as opposed to which win) depends only on bounds
// and the seen set, never on measured cost. Each wave's evaluation list is
// therefore known up front: the engine lists the wave, measures the list
// on SearchOpts.Workers evaluators, then replays it in generation order to
// apply the pruning rule. Trace, candidate list, end list and best node are
// identical for every worker count.
//
// The walk's state is sized from the bounds, not grown: one byte per node
// within them, (V, S, P)-ordered, marks it unseen, listed or pruned, so
// the end list is a scan of the pruned marks, exactly sized and already
// sorted; a wave's list is sized at six neighbours per wave member and
// reused by later waves. Beyond the Result it returns, a search allocates
// that state, the list and the wave buffers.
//
// Budgets, panics and evaluator errors stop the replay at the entry the
// FIFO walk would have stopped at. The context is checked once per wave,
// before its evaluations start: a pre-cancelled context runs no evaluation,
// and a cancellation mid-wave takes effect at the next wave, so the bytes
// do not depend on the worker count.
func SearchContext(ctx context.Context, eval Evaluator, initial Node, bounds Bounds, opts SearchOpts) (*Result, error) {
	if !bounds.contains(initial) {
		return nil, fmt.Errorf("hef: initial node %v outside bounds %+v", initial, bounds)
	}
	m := metrics()
	defer m.OnSearchEnd()
	res := &Result{Initial: initial, SpaceSize: SearchSpaceSize(bounds.VMax, bounds.SMax, bounds.PMax)}
	// state is the walk's one byte per node within bounds, by index.
	state := make([]nodeState, (bounds.VMax+1)*(bounds.SMax+1)*(bounds.PMax+1))
	npruned := 0
	finish := func() {
		if npruned == 0 {
			return // an empty end list stays nil, as in the reference search
		}
		res.EndList = make([]Node, 0, npruned)
		i := 0
		for v := 0; v <= bounds.VMax; v++ {
			for s := 0; s <= bounds.SMax; s++ {
				for p := 0; p <= bounds.PMax; p++ {
					if state[i] == pruned {
						res.EndList = append(res.EndList, Node{V: v, S: s, P: p})
					}
					i++
				}
			}
		}
	}
	partial := func(err error) (*Result, error) {
		res.Partial = true
		finish()
		return res, err
	}
	checkCtx := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("hef: search interrupted after %d evaluations: %w", res.Tested, ctx.Err())
		default:
			return nil
		}
	}

	if err := checkCtx(); err != nil {
		return partial(err)
	}
	initSec, err := safeEvaluate(eval, initial)
	if err != nil {
		if pe := (*PanicError)(nil); errors.As(err, &pe) {
			return partial(err)
		}
		return nil, fmt.Errorf("hef: evaluating initial node %v: %w", initial, err)
	}
	res.Tested++
	res.Trace = append(res.Trace, Step{Node: initial, Seconds: initSec, Parent: initial, Winner: true})
	res.Best, res.BestSeconds = initial, initSec
	res.CandidateList = append(res.CandidateList, initial)
	m.OnEvaluated(false)
	m.OnBest(initSec * 1e9)

	evals := evaluators(eval, opts.Workers)
	state[bounds.index(initial)] = listed
	var list []entry
	// measure evaluates list[i] on worker w's evaluator; each wave's list
	// runs on sched.ForEach, one evaluator inline on the calling goroutine.
	// Panics are recovered per node into *PanicError, so the replay can
	// surface the exact error of the FIFO walk. The context is checked
	// between waves, so a wave's list is always measured in full. It is
	// built once per search, not per wave: the closure escapes.
	measure := func(w, i int) { list[i].sec, list[i].err = safeEvaluate(evals[w], list[i].node) }
	wave, next := []scored{{initial, initSec}}, []scored(nil)
	for len(wave) > 0 {
		m.OnWave(len(wave))
		// List the wave's evaluations in generation order. Nodes are marked
		// seen as they are listed, exactly when the FIFO walk would have
		// evaluated them, so a node reachable from two wave members keeps
		// its first parent. A node has six neighbours, so the list never
		// outgrows six per wave member.
		if cap(list) < 6*len(wave) {
			list = make([]entry, 0, 6*len(wave))
		}
		list = list[:0]
		for _, cur := range wave {
			for _, nb := range neighbors(cur.node) {
				if bounds.contains(nb) && state[bounds.index(nb)] == unseen {
					state[bounds.index(nb)] = listed
					list = append(list, entry{node: nb, parent: cur})
				}
			}
		}
		if len(list) == 0 {
			break
		}
		if err := checkCtx(); err != nil {
			return partial(err)
		}
		evalN := len(list)
		if opts.MaxEvaluations > 0 {
			evalN = max(0, min(evalN, opts.MaxEvaluations-res.Tested))
		}
		sched.ForEach(context.Background(), len(evals), evalN, measure)

		// Replay: apply the pruning rule in generation order.
		res.Trace = slices.Grow(res.Trace, evalN)
		next = slices.Grow(next[:0], evalN)
		for i := range list {
			e := &list[i]
			if i == evalN {
				return partial(fmt.Errorf("hef: %w after %d evaluations", ErrBudgetExhausted, res.Tested))
			}
			if e.err != nil {
				if pe := (*PanicError)(nil); errors.As(e.err, &pe) {
					return partial(e.err)
				}
				return nil, fmt.Errorf("hef: evaluating node %v: %w", e.node, e.err)
			}
			res.Tested++
			win := e.sec < e.parent.sec
			res.Trace = append(res.Trace, Step{Node: e.node, Seconds: e.sec, Parent: e.parent.node, Winner: win})
			m.OnEvaluated(!win)
			if win {
				res.CandidateList = append(res.CandidateList, e.node)
				next = append(next, scored{e.node, e.sec})
				if e.sec < res.BestSeconds {
					res.Best, res.BestSeconds = e.node, e.sec
					m.OnBest(e.sec * 1e9)
				}
			} else {
				state[bounds.index(e.node)] = pruned
				npruned++
			}
		}
		wave, next = next, wave
	}
	finish()
	return res, nil
}

// nodeState is a node's place in a search walk.
type nodeState uint8

const (
	unseen nodeState = iota
	// listed nodes are, or were, listed for evaluation; the winners among
	// them stay listed.
	listed
	// pruned nodes were evaluated and lost to their parent: the end list.
	pruned
)

// index numbers the nodes within b in (V, S, P) order, 0 for n(0,0,0).
func (b Bounds) index(n Node) int { return (n.V*(b.SMax+1)+n.S)*(b.PMax+1) + n.P }

// scored is a measured node.
type scored struct {
	node Node
	sec  float64
}

// entry is one listed evaluation of a wave and its outcome.
type entry struct {
	node   Node
	parent scored
	sec    float64
	err    error
}

// evaluators returns the evaluators a search measures on: the caller's plus
// workers-1 forks. Workers below 1 mean 1, and an evaluator that cannot fork
// runs alone; the replay keeps the result identical either way.
func evaluators(eval Evaluator, workers int) []Evaluator {
	fe, ok := eval.(ForkableEvaluator)
	if !ok || workers < 1 {
		workers = 1
	}
	evals := []Evaluator{eval}
	for len(evals) < workers {
		evals = append(evals, fe.Fork())
	}
	return evals
}
