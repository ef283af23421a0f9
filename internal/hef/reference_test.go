package hef

import (
	"cmp"
	"fmt"
	"slices"
)

// referenceSearch is Algorithm 2 as written, the naive oracle the engine's
// differentials compare against: a FIFO queue of winners, each expansion
// measuring its unseen in-bounds neighbours one Evaluate at a time. It
// stops before the evaluation that would exceed budget (0 means none) and
// at the first evaluator error or recovered panic, returning the
// best-so-far Result marked Partial.
func referenceSearch(eval Evaluator, initial Node, bounds Bounds, budget int) (*Result, error) {
	res := &Result{Initial: initial, SpaceSize: SearchSpaceSize(bounds.VMax, bounds.SMax, bounds.PMax)}
	seen := map[Node]bool{}
	var queue []Step
	visit := func(n Node, parent Step) error {
		if budget > 0 && res.Tested >= budget {
			return fmt.Errorf("hef: %w after %d evaluations", ErrBudgetExhausted, res.Tested)
		}
		seen[n] = true
		sec, err := safeEvaluate(eval, n)
		if err != nil {
			return err
		}
		res.Tested++
		st := Step{Node: n, Seconds: sec, Parent: parent.Node, Winner: n == parent.Node || sec < parent.Seconds}
		res.Trace = append(res.Trace, st)
		if !st.Winner {
			res.EndList = append(res.EndList, n)
			return nil
		}
		res.CandidateList = append(res.CandidateList, n)
		queue = append(queue, st)
		if res.Tested == 1 || sec < res.BestSeconds {
			res.Best, res.BestSeconds = n, sec
		}
		return nil
	}
	err := visit(initial, Step{Node: initial})
	for ; err == nil && len(queue) > 0; queue = queue[1:] {
		for _, nb := range neighbors(queue[0].Node) {
			if err == nil && bounds.contains(nb) && !seen[nb] {
				err = visit(nb, queue[0])
			}
		}
	}
	res.Partial = err != nil
	sortNodes(res.EndList)
	return res, err
}

// sortNodes orders ns by (V, S, P), the order of a search's end list.
func sortNodes(ns []Node) {
	slices.SortFunc(ns, func(a, b Node) int {
		if c := cmp.Compare(a.V, b.V); c != 0 {
			return c
		}
		if c := cmp.Compare(a.S, b.S); c != 0 {
			return c
		}
		return cmp.Compare(a.P, b.P)
	})
}
