package robust

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/uarch"
)

// SensConfig configures one sensitivity analysis: an operator template, a
// CPU model, and the perturbation ensemble to re-run the pruning search
// under.
type SensConfig struct {
	// CPU is the unperturbed machine model.
	CPU *isa.CPU
	// Template is the operator under test.
	Template *hid.Template
	// Width is the SIMD width (0 selects the CPU's native width).
	Width isa.Width
	// Elems is the per-evaluation synthetic test size (0 selects the
	// search default).
	Elems int64
	// Bounds caps the search space ({} selects hef.DefaultBounds).
	Bounds hef.Bounds

	// Seed selects the perturbation ensemble; trial k draws from a hash of
	// (Seed, k), so the whole analysis is deterministic.
	Seed uint64
	// Trials is the ensemble size K (0 selects 20).
	Trials int
	// Jitter is the relative half-width applied to instruction latencies,
	// occupancies, cache hit latencies, and license frequencies
	// (0.05 = ±5%).
	Jitter float64
	// PortFaultRate injects transient port-unavailable cycles at this
	// probability per (port, cycle); zero disables port faults.
	PortFaultRate float64

	// Budget caps evaluations per search (0 = unlimited), so a sensitivity
	// sweep over many operators stays bounded even if a perturbed model
	// makes the search walk far.
	Budget int

	// Parallel is the number of evaluator workers for the baseline and
	// every trial search; 0 means 1. The analysis is byte-identical for
	// every setting.
	Parallel int

	// Memo, when non-nil, is the measurement cache the analysis populates
	// and consults (a persistent store's cache under -memo-dir). Nil keeps
	// the classic private per-analysis cache. Entries are keyed by the
	// perturbed machine fingerprint, so sharing one cache across analyses
	// never mixes measurements from different models — it only lets
	// coinciding models (e.g. every Jitter=0 trial) reuse work.
	Memo *memo.Cache
}

// Trial is the outcome of the search on one perturbed model.
type Trial struct {
	// Seed is the derived per-trial perturbation seed.
	Seed uint64 `json:"seed"`
	// Best is the optimum found under this perturbation.
	Best string `json:"best"`
	// BestNSPerElem is its per-element cost on the perturbed model.
	BestNSPerElem float64 `json:"best_ns_per_elem"`
	// Tested counts evaluator invocations in this trial's search.
	Tested int `json:"tested"`
	// Moved is true when the optimum differs from the baseline pick.
	Moved bool `json:"moved"`
	// RegretPct is the relative cycle-cost penalty, in percent, of running
	// the baseline (unperturbed) pick on this perturbed machine instead of
	// the trial's own optimum: (cost(baseline) - cost(best)) / cost(best).
	RegretPct float64 `json:"regret_pct"`
	// RankChurn is the normalized Spearman footrule distance between the
	// baseline and trial rankings of the nodes both searches evaluated:
	// 0 = identical order, 1 = maximally shuffled.
	RankChurn float64 `json:"rank_churn"`
	// Partial is true when this trial's search was cut short by Budget.
	Partial bool `json:"partial,omitempty"`
}

// Sensitivity is the stability report for one (operator, CPU) pair.
type Sensitivity struct {
	Op  string `json:"op"`
	CPU string `json:"cpu"`
	// Baseline is the optimum on the unperturbed model and
	// BaselineNSPerElem its cost there.
	Baseline          string  `json:"baseline"`
	BaselineNSPerElem float64 `json:"baseline_ns_per_elem"`
	BaselineTested    int     `json:"baseline_tested"`

	Trials []Trial `json:"trials"`

	// Stability is the fraction of trials whose optimum equalled the
	// baseline pick.
	Stability float64 `json:"stability"`
	// MeanRegretPct and MaxRegretPct aggregate the per-trial regret of the
	// baseline pick.
	MeanRegretPct float64 `json:"mean_regret_pct"`
	MaxRegretPct  float64 `json:"max_regret_pct"`
	// MeanRankChurn aggregates per-trial rank churn.
	MeanRankChurn float64 `json:"mean_rank_churn"`
}

// trialSeed derives the perturbation seed for trial k from the ensemble
// seed, splitmix64-style so adjacent k give unrelated draws.
func trialSeed(seed uint64, k int) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(k+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Analyze runs the full sensitivity analysis: one baseline search on the
// unperturbed model, then cfg.Trials searches on perturbed clones, scoring
// each against the baseline. ctx is threaded through the whole analysis:
// it cancels inside each trial's search (checked before every node
// evaluation), between trials, and before the per-trial regret
// measurement, so a deadline set at the CLI edge (hefsens -timeout) stops
// the analysis within one evaluation wherever it lands.
func Analyze(ctx context.Context, cfg SensConfig) (*Sensitivity, error) {
	if cfg.CPU == nil || cfg.Template == nil {
		return nil, fmt.Errorf("robust: SensConfig needs CPU and Template")
	}
	width := cfg.Width
	if width == 0 {
		width = cfg.CPU.NativeWidth()
	}
	bounds := cfg.Bounds
	if bounds == (hef.Bounds{}) {
		bounds = hef.DefaultBounds
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 20
	}

	initial, err := hef.InitialNode(cfg.CPU, cfg.Template, width)
	if err != nil {
		return nil, fmt.Errorf("robust: %w", err)
	}
	if !initial.Valid() || initial.V > bounds.VMax || initial.S > bounds.SMax || initial.P > bounds.PMax {
		return nil, fmt.Errorf("robust: initial node %v outside bounds %+v", initial, bounds)
	}

	// A budget-exhausted search still yields a usable (partial) result; any
	// other failure — cancellation, a broken model — aborts the analysis.
	opts := hef.SearchOpts{MaxEvaluations: cfg.Budget, Workers: cfg.Parallel}
	// One measurement memo for the whole analysis. Trials only share entries
	// when their perturbed machine actually coincides with another's (the
	// fingerprint normalizes a zero-rate perturbation to the nominal model,
	// so a Jitter=0 ensemble collapses onto the baseline's measurements);
	// within a trial it serves the regret re-measurement of already-searched
	// nodes. A caller-supplied cache (cfg.Memo) widens that sharing across
	// analyses — and across processes when it is backed by a store.
	cache := cfg.Memo
	if cache == nil {
		cache = memo.NewCache()
	}
	baseEval := hef.NewSimEvaluator(cfg.CPU, cfg.Template, width, cfg.Elems)
	baseEval.SetMemo(cache)
	baseRes, err := hef.SearchContext(ctx, baseEval, initial, bounds, opts)
	if err != nil && (baseRes == nil || !errors.Is(err, hef.ErrBudgetExhausted)) {
		return nil, fmt.Errorf("robust: baseline search: %w", err)
	}

	out := &Sensitivity{
		Op:                cfg.Template.Name,
		CPU:               cfg.CPU.Name,
		Baseline:          baseRes.Best.String(),
		BaselineNSPerElem: baseRes.BestSeconds * 1e9,
		BaselineTested:    baseRes.Tested,
	}
	baseCosts := traceCosts(baseRes)

	for k := 0; k < trials; k++ {
		// The search checks ctx per evaluation; this check covers the gap
		// between trials (and a pre-cancelled context before the first).
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("robust: cancelled before trial %d: %w", k, err)
		}
		p := &uarch.Perturb{
			Seed:          trialSeed(cfg.Seed, k),
			LatJitter:     cfg.Jitter,
			OccJitter:     cfg.Jitter,
			CacheJitter:   cfg.Jitter,
			FreqJitter:    cfg.Jitter,
			PortFaultRate: cfg.PortFaultRate,
		}
		// Cache and frequency jitter live in the machine model, so the
		// trial searches a perturbed clone; instruction jitter and port
		// faults hook into issue via SetPerturb.
		eval := hef.NewSimEvaluator(p.CPU(cfg.CPU), cfg.Template, width, cfg.Elems)
		eval.SetPerturb(p)
		eval.SetMemo(cache)
		res, err := hef.SearchContext(ctx, eval, initial, bounds, opts)
		if err != nil && (res == nil || !errors.Is(err, hef.ErrBudgetExhausted)) {
			return nil, fmt.Errorf("robust: trial %d: %w", k, err)
		}

		tr := Trial{
			Seed:          p.Seed,
			Best:          res.Best.String(),
			BestNSPerElem: res.BestSeconds * 1e9,
			Tested:        res.Tested,
			Moved:         res.Best != baseRes.Best,
			Partial:       res.Partial,
		}

		// Regret: cost of the baseline pick on this perturbed machine. The
		// search may not have visited it, so measure it directly — another
		// full simulation, so it too sits behind a cancellation point.
		costs := traceCosts(res)
		baseOnPerturbed, ok := costs[baseRes.Best]
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("robust: trial %d: cancelled before measuring baseline pick: %w", k, err)
			}
			baseOnPerturbed, err = eval.Evaluate(baseRes.Best)
			if err != nil {
				return nil, fmt.Errorf("robust: trial %d: measuring baseline pick: %w", k, err)
			}
		}
		if res.BestSeconds > 0 {
			tr.RegretPct = 100 * (baseOnPerturbed - res.BestSeconds) / res.BestSeconds
			if tr.RegretPct < 0 {
				tr.RegretPct = 0 // baseline pick can't beat this trial's own optimum by definition of regret
			}
		}
		tr.RankChurn = rankChurn(baseCosts, costs)

		out.Trials = append(out.Trials, tr)
	}

	// Aggregates.
	moved := 0
	var sumRegret, sumChurn float64
	for _, tr := range out.Trials {
		if tr.Moved {
			moved++
		}
		sumRegret += tr.RegretPct
		if tr.RegretPct > out.MaxRegretPct {
			out.MaxRegretPct = tr.RegretPct
		}
		sumChurn += tr.RankChurn
	}
	n := float64(len(out.Trials))
	if n > 0 {
		out.Stability = 1 - float64(moved)/n
		out.MeanRegretPct = sumRegret / n
		out.MeanRankChurn = sumChurn / n
	}
	return out, nil
}

// traceCosts extracts the per-node measured costs of a search.
func traceCosts(r *hef.Result) map[hef.Node]float64 {
	m := make(map[hef.Node]float64, len(r.Trace))
	for _, st := range r.Trace {
		m[st.Node] = st.Seconds
	}
	return m
}

// rankChurn is the normalized Spearman footrule distance between two cost
// rankings, computed over the nodes both searches evaluated. 0 means the
// common nodes rank identically; 1 is the maximum possible displacement.
func rankChurn(a, b map[hef.Node]float64) float64 {
	var common []hef.Node
	for n := range a {
		if _, ok := b[n]; ok {
			common = append(common, n)
		}
	}
	m := len(common)
	if m < 2 {
		return 0
	}
	rankIn := func(costs map[hef.Node]float64) map[hef.Node]int {
		ns := append([]hef.Node(nil), common...)
		sort.Slice(ns, func(i, j int) bool {
			if costs[ns[i]] != costs[ns[j]] {
				return costs[ns[i]] < costs[ns[j]]
			}
			// Tie-break on the node itself so ranking is deterministic.
			if ns[i].V != ns[j].V {
				return ns[i].V < ns[j].V
			}
			if ns[i].S != ns[j].S {
				return ns[i].S < ns[j].S
			}
			return ns[i].P < ns[j].P
		})
		r := make(map[hef.Node]int, len(ns))
		for i, n := range ns {
			r[n] = i
		}
		return r
	}
	ra, rb := rankIn(a), rankIn(b)
	sum := 0
	for _, n := range common {
		d := ra[n] - rb[n]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	// The footrule maximum is m²/2 for even m, (m²-1)/2 for odd.
	max := m * m / 2
	if m%2 == 1 {
		max = (m*m - 1) / 2
	}
	return float64(sum) / float64(max)
}
