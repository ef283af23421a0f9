package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hef/internal/engine"
	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/sched"
	"hef/internal/ssb"
)

// Figure is one SSB workload figure (Fig. 8 = SF10, Fig. 9 = SF20,
// Fig. 10 = SF50): execution times for the evaluated queries under all four
// engines on one CPU.
type Figure struct {
	Label     string
	NominalSF float64
	SampleSF  float64
	CPU       *isa.CPU
	Order     []string
	Runs      map[string]map[EngineKind]*QueryRun
	// Sums holds the functional query answers (identical across engines).
	Sums map[string]uint64
	// MemoStats snapshots the stage-measurement cache's counters when the
	// figure ran with one (zero otherwise). With a fresh per-figure cache
	// the counters are deterministic for every Parallel setting: distinct
	// measurements miss once during the pre-measure phase, and every stage
	// reference hits during assembly.
	MemoStats memo.Stats
}

// FigureConfig parameterises a figure run.
type FigureConfig struct {
	// CPUName is "silver" or "gold".
	CPUName string
	// NominalSF is the paper's scale factor (10, 20, or 50).
	NominalSF float64
	// SampleSF is the functional sampling scale (default 0.01).
	SampleSF float64
	// Seed for the data generator.
	Seed uint64
	// Queries restricts the query set; nil selects the paper's ten
	// evaluated queries.
	Queries []queries.Query
	// Engines restricts the engine set; nil selects all four.
	Engines []EngineKind
	// Memo, when non-nil, caches stage measurements by content fingerprint:
	// the figure's distinct measurements are simulated exactly once (stages
	// recur heavily across queries and engines) and the per-cell assembly is
	// served from the cache. The timing numbers are identical either way —
	// a stage measurement is a pure function of its fingerprint. Without a
	// cache every stage reference is simulated, serially, on one simulator.
	Memo *memo.Cache
	// Parallel runs the distinct stage measurements on that many concurrent
	// workers, which share the figure's simulators, one per running
	// measurement (requires Memo; <= 1 measures serially on one
	// simulator). The figure — numbers, ordering, and cache counters — is
	// identical for every setting.
	Parallel int
}

// RunFigure executes the functional pipeline at the sample scale and times
// every (query, engine) cell at the nominal scale.
func RunFigure(cfg FigureConfig) (*Figure, error) {
	if cfg.SampleSF == 0 {
		cfg.SampleSF = 0.01
	}
	if cfg.Seed == 0 {
		cfg.Seed = 20230401
	}
	qs := cfg.Queries
	if qs == nil {
		qs = queries.Evaluated()
	}
	engines := cfg.Engines
	if engines == nil {
		engines = AllEngines
	}
	cpu, err := isa.ByName(cfg.CPUName)
	if err != nil {
		return nil, err
	}

	data := ssb.Generate(cfg.SampleSF, cfg.Seed)
	fig := &Figure{
		Label:     fmt.Sprintf("SSB SF%g on %s", cfg.NominalSF, cpu.Name),
		NominalSF: cfg.NominalSF,
		SampleSF:  cfg.SampleSF,
		CPU:       cpu,
		Runs:      map[string]map[EngineKind]*QueryRun{},
		Sums:      map[string]uint64{},
	}
	stats := map[string]queries.Stats{}
	for _, q := range qs {
		fres, err := queries.Execute(q, data, engine.Scalar)
		if err != nil {
			return nil, fmt.Errorf("experiments: functional %s: %w", q.ID, err)
		}
		fig.Order = append(fig.Order, q.ID)
		fig.Sums[q.ID] = fres.Sum
		fig.Runs[q.ID] = map[EngineKind]*QueryRun{}
		stats[q.ID] = fres.Stats
	}
	// Every cell is translated and fingerprinted once; pre-measuring and
	// assembly share the plans.
	var cells []*queryPlan
	for _, q := range qs {
		for _, kind := range engines {
			qp, err := planQuery(cpu, q, stats[q.ID], cfg.NominalSF, kind)
			if err != nil {
				return nil, fmt.Errorf("experiments: timing %s/%v: %w", q.ID, kind, err)
			}
			cells = append(cells, qp)
		}
	}
	// The pre-measure workers and the assembly measure on one stack of
	// simulators.
	sims := &hef.SimStack{}
	if cfg.Memo != nil {
		if err := premeasureFigure(cpu, sims, cells, cfg.Memo, cfg.Parallel); err != nil {
			return nil, err
		}
	}
	for _, qp := range cells {
		run, err := qp.time(sims, cfg.Memo)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing %s/%v: %w", qp.queryID, qp.kind, err)
		}
		fig.Runs[qp.queryID][qp.kind] = run
	}
	fig.MemoStats = cfg.Memo.Stats()
	return fig, nil
}

// premeasureFigure measures every distinct stage measurement of the
// figure's planned cells exactly once, into cache, on sched.ForEach's
// worker loop with parallel workers, each measurement on a simulator from
// sims. Deduplicating by fingerprint before dispatch — rather than letting
// concurrent cells race to measure the same stage — both avoids duplicate
// simulations and keeps the cache counters independent of the worker
// count, so a figure report is byte-identical for every Parallel setting.
// A stage already in cache (a shared cache) counts one hit and is not
// measured again. It returns the first failure in stage order.
func premeasureFigure(cpu *isa.CPU, sims *hef.SimStack, cells []*queryPlan, cache *memo.Cache, parallel int) error {
	type work struct {
		name string
		pl   *stagePlan
	}
	var todo []work
	seen := map[memo.Key]bool{}
	for _, qp := range cells {
		for i, pl := range qp.plans {
			if pl == nil || seen[pl.key] {
				continue
			}
			seen[pl.key] = true
			todo = append(todo, work{name: qp.stages[i].Name, pl: pl})
		}
	}
	errs := make([]error, len(todo))
	sched.ForEach(context.Background(), parallel, len(todo), func(_, i int) {
		w := todo[i]
		// A panic on a worker goroutine would end the process; reported as
		// the stage's error, it reaches RunFigure's caller like any other
		// failure.
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("experiments: stage %s panicked: %v", w.name, r)
			}
		}()
		if _, err := sims.Measure(cache, w.pl.key, &w.pl.Plan, cpu, nil); err != nil {
			errs[i] = fmt.Errorf("experiments: stage %s: %w", w.name, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// String renders the figure as the table of per-query execution times the
// paper plots as bars.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (sample SF%g, extrapolated)\n", f.Label, f.SampleSF)
	fmt.Fprintf(&b, "%-6s", "query")
	kinds := f.kinds()
	for _, k := range kinds {
		fmt.Fprintf(&b, " %12s", k)
	}
	fmt.Fprintf(&b, " %14s %14s\n", "hyb/scalar", "hyb/simd")
	for _, id := range f.Order {
		fmt.Fprintf(&b, "%-6s", id)
		for _, k := range kinds {
			fmt.Fprintf(&b, " %10.0fms", f.Runs[id][k].Seconds*1e3)
		}
		sc, si := f.Speedups(id)
		fmt.Fprintf(&b, " %13.2fx %13.2fx\n", sc, si)
	}
	return b.String()
}

// kinds lists the engine kinds present, in canonical order.
func (f *Figure) kinds() []EngineKind {
	present := map[EngineKind]bool{}
	for _, perQ := range f.Runs {
		for k := range perQ {
			present[k] = true
		}
	}
	var out []EngineKind
	for _, k := range AllEngines {
		if present[k] {
			out = append(out, k)
		}
	}
	return out
}

// Speedups returns the hybrid speedup over scalar and SIMD for one query
// (zero when an engine was not run).
func (f *Figure) Speedups(id string) (overScalar, overSIMD float64) {
	perQ := f.Runs[id]
	h, okH := perQ[KindHybrid]
	if !okH || h.Seconds == 0 {
		return 0, 0
	}
	if s, ok := perQ[KindScalar]; ok {
		overScalar = s.Seconds / h.Seconds
	}
	if v, ok := perQ[KindSIMD]; ok {
		overSIMD = v.Seconds / h.Seconds
	}
	return overScalar, overSIMD
}

// CounterTable renders the Table III/IV/V layout — instructions,
// LLC-misses, IPC, frequency, and time for every engine of one query.
func (f *Figure) CounterTable(queryID string) (string, error) {
	perQ, ok := f.Runs[queryID]
	if !ok {
		return "", fmt.Errorf("experiments: query %s not in figure", queryID)
	}
	kinds := f.kinds()
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %s, SF%g\n", queryID, f.CPU.Name, f.NominalSF)
	fmt.Fprintf(&b, "%-22s", "Attributes")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %12s", k)
	}
	b.WriteString("\n")
	row := func(name string, get func(*QueryRun) float64, format string) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, k := range kinds {
			fmt.Fprintf(&b, " "+format, get(perQ[k]))
		}
		b.WriteString("\n")
	}
	row("Instructions (10^8)", func(r *QueryRun) float64 { return float64(r.Total.Instructions) / 1e8 }, "%12.1f")
	row("LLC-misses (10^6)", func(r *QueryRun) float64 { return float64(r.Total.Cache.LLCMissesReported()) / 1e6 }, "%12.2f")
	row("IPC", func(r *QueryRun) float64 { return r.IPC() }, "%12.2f")
	row("Frequency", func(r *QueryRun) float64 { return r.FreqGHz }, "%12.2f")
	row("Time (ms)", func(r *QueryRun) float64 { return r.Seconds * 1e3 }, "%12.0f")
	return b.String(), nil
}

// SortedGroupKeys returns the group keys of a grouped result in ascending
// order (stable output for golden tests and tools).
func SortedGroupKeys(groups map[uint64]uint64) []uint64 {
	keys := make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
