package experiments

import (
	"fmt"

	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/queries"
	"hef/internal/translator"
)

// This file implements the extension the paper leaves as future work
// (Section VII): instead of assembling queries from operators with one
// pre-tested node, HEF "dynamically select[s] operators with different
// implementations according to queries". TimeQueryTuned runs the pruning
// search per pipeline stage — each stage's template carries its own hash
// table size and access profile, so different stages can settle on
// different (v, s, p) nodes.

// tunedBounds keeps the per-stage searches fast; SSB stage optima stay well
// inside them.
var tunedBounds = hef.Bounds{VMax: 2, SMax: 4, PMax: 6}

// tunedTestElems is the per-evaluation test size for stage searches.
const tunedTestElems = 1 << 14

// TunedStage records the node chosen for one stage.
type TunedStage struct {
	Name  string
	Node  translator.Node
	Elems uint64
}

// TimeQueryTuned times a query with per-stage optimized hybrid nodes and
// returns both the run and the chosen nodes. The search cost itself is the
// offline phase and is not charged to the query time, matching the paper's
// "once we get the optimal implementation ... we could use them to
// implement various queries directly without further training".
func TimeQueryTuned(cpu *isa.CPU, q queries.Query, st queries.Stats, nominalSF float64) (*QueryRun, []TunedStage, error) {
	stages, err := buildStages(q, st, nominalSF, KindHybrid)
	if err != nil {
		return nil, nil, err
	}
	run := &QueryRun{QueryID: q.ID, Kind: KindHybrid, CPU: cpu}
	var chosen []TunedStage
	// Identical stage templates (same operator, same region) reuse their
	// search result.
	type cacheKey struct {
		name   string
		region uint64
	}
	cache := map[cacheKey]translator.Node{}
	// The stage searches and the stage measurements share one stack of
	// simulators.
	sims := &hef.SimStack{}

	for _, stage := range stages {
		if stage.Elems == 0 {
			continue
		}
		key := cacheKey{name: stage.Template.Name}
		for _, p := range stage.Template.Params {
			key.region += p.Region
		}
		node, ok := cache[key]
		if !ok {
			initial, err := hef.InitialNode(cpu, stage.Template, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: tuning %s: %w", stage.Name, err)
			}
			initial = clampToBounds(initial, tunedBounds)
			eval := hef.NewSimEvaluator(cpu, stage.Template, 0, tunedTestElems)
			eval.SetSims(sims)
			sr, err := hef.Search(eval, initial, tunedBounds)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: tuning %s: %w", stage.Name, err)
			}
			node = sr.Best
			cache[key] = node
		}
		n := node
		stage.Node = &n
		pl, err := planStage(cpu, stage, KindHybrid)
		if err != nil {
			return nil, nil, err
		}
		res, err := runStage(sims, cpu, stage, pl, nil)
		if err != nil {
			return nil, nil, err
		}
		sec := res.Seconds()
		run.Total.Add(res)
		run.Seconds += sec
		run.Stages = append(run.Stages, StageResult{Stage: stage, Res: res, Seconds: sec})
		chosen = append(chosen, TunedStage{Name: stage.Name, Node: node, Elems: stage.Elems})
	}
	if run.Seconds > 0 {
		run.FreqGHz = float64(run.Total.Cycles) / run.Seconds / 1e9
	}
	return run, chosen, nil
}

func clampToBounds(n translator.Node, b hef.Bounds) translator.Node {
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
		n = translator.Node{V: 1, S: 1, P: 1}
	}
	return n
}
