// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment combines a functional run (the query
// executor at a sampled scale factor, which yields correct answers and
// per-stage cardinalities) with the timing model (stage operator templates,
// translated per engine and run on the microarchitecture simulator with
// hash-table regions sized for the nominal scale factor), extrapolated
// linearly to nominal row counts. DESIGN.md's per-experiment index maps each
// paper artifact to its driver here.
package experiments

import (
	"fmt"

	"hef/internal/engine"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
	"hef/internal/voila"
)

// EngineKind identifies the four execution engines of Figs. 8-10.
type EngineKind int

const (
	// KindScalar is the purely scalar implementation.
	KindScalar EngineKind = iota
	// KindSIMD is the purely AVX-512 implementation.
	KindSIMD
	// KindVoila is the Voila comparator model (vector(1024) FSM interpreter
	// with prefetch and materialised intermediates).
	KindVoila
	// KindHybrid is the HEF hybrid execution at the paper's SSB optimum,
	// one SIMD + one scalar statement with pack 3 (Section V-B).
	KindHybrid
)

// AllEngines lists the engines in the order the paper's figures plot them.
var AllEngines = []EngineKind{KindScalar, KindSIMD, KindVoila, KindHybrid}

func (k EngineKind) String() string {
	switch k {
	case KindScalar:
		return "Scalar"
	case KindSIMD:
		return "SIMD"
	case KindVoila:
		return "Voila"
	case KindHybrid:
		return "Hybrid"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// SSBHybridNode is the optimal SSB operator node the paper reports for
// AVX-512 ("one SIMD statement and one scalar statement, and the value of
// pack is three").
var SSBHybridNode = translator.Node{V: 1, S: 1, P: 3}

// nodeFor maps an engine to its candidate node.
func nodeFor(kind EngineKind) translator.Node {
	switch kind {
	case KindScalar:
		return translator.Node{V: 0, S: 1, P: 1}
	case KindHybrid:
		return SSBHybridNode
	default: // SIMD and Voila are purely vectorized
		return translator.Node{V: 1, S: 0, P: 1}
	}
}

// SampleElems caps the elements simulated per stage; counters are then
// scaled to the stage's nominal element count.
const SampleElems = 1 << 15

// fsmElemsPerBatch converts Voila's per-batch FSM dispatch cost into
// elements of the FSM template (~5 instructions each).
const fsmElemsPerBatch = voila.FSMInstrsPerBatch / 5

// Stage is one timed pipeline stage.
type Stage struct {
	Name     string
	Template *hid.Template
	// Elems is the nominal number of elements flowing through the stage.
	Elems uint64
	// Node overrides the engine's candidate node for this stage (used for
	// Voila's tuple-at-a-time FSM work, which is scalar).
	Node *translator.Node
}

// StageResult pairs a stage with its scaled simulation counters.
type StageResult struct {
	Stage   Stage
	Res     *uarch.Result
	Seconds float64
}

// QueryRun is the timing of one query on one engine and CPU.
type QueryRun struct {
	QueryID string
	Kind    EngineKind
	CPU     *isa.CPU
	// Total sums the scaled per-stage counters.
	Total uarch.Result
	// Seconds is the extrapolated wall time; FreqGHz the cycle-weighted
	// effective clock.
	Seconds float64
	FreqGHz float64
	Stages  []StageResult
}

// IPC is retired instructions per cycle over the whole query.
func (r *QueryRun) IPC() float64 { return r.Total.IPC() }

// htBytesFor mirrors engine.NewLinearTable's sizing for n entries.
func htBytesFor(n int) uint64 {
	capacity := 4 * n
	if capacity < 16 {
		capacity = 16
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return uint64(size) * 16
}

// nominalDim returns the nominal row count of a dimension at sf.
func nominalDim(name string, sf float64) (int, error) {
	sz := ssb.SizesFor(sf)
	switch name {
	case "date":
		return sz.Date, nil
	case "customer":
		return sz.Customer, nil
	case "supplier":
		return sz.Supplier, nil
	case "part":
		return sz.Part, nil
	}
	return 0, fmt.Errorf("experiments: unknown dimension %q", name)
}

// buildStages assembles the timed pipeline for one query and engine,
// scaling the sampled cardinalities to the nominal scale factor.
func buildStages(q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind) ([]Stage, error) {
	nominalFact := ssb.SizesFor(nominalSF).Lineorder
	factScale := float64(nominalFact) / float64(st.FactRows)
	var stages []Stage

	scaleDim := func(i int) (rows, passed int, err error) {
		nom, err := nominalDim(q.Joins[i].Dim, nominalSF)
		if err != nil {
			return 0, 0, err
		}
		f := float64(nom) / float64(st.DimRows[i])
		return nom, int(float64(st.DimPassed[i])*f) + 1, nil
	}

	filterTmpl := func(n int) *hid.Template {
		if kind == KindVoila {
			return voila.FilterTemplate(n)
		}
		return engine.FilterTemplate(n)
	}

	// Dimension scans and hash-table builds.
	htBytes := make([]uint64, len(q.Joins))
	for i, j := range q.Joins {
		dimRows, dimPassed, err := scaleDim(i)
		if err != nil {
			return nil, err
		}
		// Hash tables are sized for the full dimension cardinality (the
		// paper's "large linear hash table"), not the filtered entry count.
		htBytes[i] = htBytesFor(dimRows)
		nPreds := len(j.Preds)
		if nPreds == 0 {
			nPreds = 1 // an unpredicated build still scans key and payload
		}
		stages = append(stages,
			Stage{Name: "scan:" + j.Dim, Template: filterTmpl(nPreds), Elems: uint64(dimRows)},
			Stage{Name: "build:" + j.Dim, Template: engine.BuildTemplate(htBytes[i]), Elems: uint64(dimPassed)},
		)
	}

	// Fact-local predicates (Q1.x only).
	if len(q.FactPreds) > 0 {
		stages = append(stages, Stage{
			Name:     "scan:lineorder",
			Template: filterTmpl(len(q.FactPreds)),
			Elems:    uint64(float64(st.FactRows) * factScale),
		})
	}

	// Probe pipeline. Voila's vectorized probes are prefetched and lean,
	// but every row that survives a probe is handed to the state machine
	// for tuple-at-a-time match handling across the remaining stages — the
	// source of its instruction blow-up when many rows survive ("enormous
	// instructions when the selectivity is low") and of its rapid collapse
	// on highly selective queries.
	scalarNode := translator.Node{V: 0, S: 1, P: 1}
	for i, j := range q.Joins {
		elems := uint64(float64(st.ProbeIn[i]) * factScale)
		var tmpl *hid.Template
		if kind == KindVoila {
			tmpl = voila.ProbeTemplate(htBytes[i])
			batches := elems/voila.BatchSize + 1
			stages = append(stages, Stage{
				Name:     "fsm:" + j.Dim,
				Template: voila.FSMTemplate(),
				Elems:    batches * fsmElemsPerBatch,
				Node:     &scalarNode,
			})
			if i > 0 {
				// Tuple-at-a-time handling of the rows that survived the
				// previous probes, over intermediate buffers whose footprint
				// grows with the survivor count.
				stages = append(stages, Stage{
					Name:     "tuples:" + j.Dim,
					Template: voila.TupleTemplate(elems * voila.BytesPerSurvivor),
					Elems:    elems * voila.TupleFSMElems,
					Node:     &scalarNode,
				})
			}
		} else {
			tmpl = engine.ProbeTemplate(htBytes[i])
		}
		stages = append(stages, Stage{Name: "probe:" + j.Dim, Template: tmpl, Elems: elems})
	}

	// Aggregation over the survivors.
	survivors := st.ProbeOut[len(st.ProbeOut)-1]
	out := uint64(float64(survivors) * factScale)
	if q.GroupBy() {
		groupBytes := htBytesFor(st.GroupCount) / 2
		if kind == KindVoila {
			stages = append(stages, Stage{Name: "agg", Template: voila.AggTemplate(groupBytes), Elems: out})
		} else {
			stages = append(stages, Stage{Name: "agg", Template: engine.GroupAggTemplate(groupBytes), Elems: out})
		}
	} else {
		stages = append(stages, Stage{Name: "agg", Template: engine.SumAggTemplate(), Elems: out})
	}
	return stages, nil
}

// stagePlan is one stage's measurement under memo.ProtoStage plus the
// content key the memo cache stores its result under.
type stagePlan struct {
	memo.Plan
	key memo.Key
}

// planStage translates a stage at the engine's node and computes the
// measurement plan and content fingerprint of its simulation, capped at
// SampleElems elements. Random regions that fit in the LLC are warmed
// before the run so node comparisons reflect steady state.
func planStage(cpu *isa.CPU, stage Stage, kind EngineKind) (*stagePlan, error) {
	node := nodeFor(kind)
	if stage.Node != nil {
		node = *stage.Node
	}
	out, err := translator.Translate(stage.Template, node, translator.Options{CPU: cpu})
	if err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", stage.Name, err)
	}
	pl := &stagePlan{Plan: memo.NewPlan(memo.ProtoStage, cpu, stage.Template, out, int64(min(stage.Elems, SampleElems)))}
	pl.key = pl.Key(cpu, nil)
	return pl, nil
}

// runStage returns a planned stage's counters scaled to the stage's
// nominal element count, measured through sims: a non-nil cache serves
// repeat measurements (stages shared across queries and engines) from
// their fingerprint, and a miss, or a nil cache, simulates and stores the
// result.
func runStage(sims *hef.SimStack, cpu *isa.CPU, stage Stage, pl *stagePlan, cache *memo.Cache) (*uarch.Result, error) {
	res, err := sims.Measure(cache, pl.key, &pl.Plan, cpu, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", stage.Name, err)
	}
	res.Name = stage.Name
	res.Scale(float64(stage.Elems) / float64(res.Elems))
	return res, nil
}

// queryPlan is one (query, engine) cell on one CPU, planned once: its timed
// stages and, for each stage that processes elements, the stage's
// measurement plan (nil for the others).
type queryPlan struct {
	queryID string
	kind    EngineKind
	cpu     *isa.CPU
	stages  []Stage
	plans   []*stagePlan
}

// planQuery builds and plans the timed pipeline of one query and engine.
func planQuery(cpu *isa.CPU, q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind) (*queryPlan, error) {
	stages, err := buildStages(q, st, nominalSF, kind)
	if err != nil {
		return nil, err
	}
	qp := &queryPlan{queryID: q.ID, kind: kind, cpu: cpu, stages: stages, plans: make([]*stagePlan, len(stages))}
	for i, stage := range stages {
		if stage.Elems == 0 {
			continue
		}
		if qp.plans[i], err = planStage(cpu, stage, kind); err != nil {
			return nil, err
		}
	}
	return qp, nil
}

// time assembles the cell's run from its plans, one measurement through
// sims per stage that processes elements.
func (qp *queryPlan) time(sims *hef.SimStack, cache *memo.Cache) (*QueryRun, error) {
	run := &QueryRun{QueryID: qp.queryID, Kind: qp.kind, CPU: qp.cpu}
	for i, stage := range qp.stages {
		var res *uarch.Result
		if pl := qp.plans[i]; pl == nil {
			res = &uarch.Result{Name: stage.Name, FreqGHz: qp.cpu.Freq.ScalarGHz}
		} else {
			var err error
			if res, err = runStage(sims, qp.cpu, stage, pl, cache); err != nil {
				return nil, err
			}
		}
		sec := res.Seconds()
		run.Total.Add(res)
		run.Seconds += sec
		run.Stages = append(run.Stages, StageResult{Stage: stage, Res: res, Seconds: sec})
	}
	if run.Seconds > 0 {
		run.FreqGHz = float64(run.Total.Cycles) / run.Seconds / 1e9
	}
	return run, nil
}

// TimeQuery produces the timing of one query for one engine on one CPU,
// from the sampled functional stats, extrapolated to nominalSF. Its stages
// are measured on one simulator, built on the first stage that processes
// elements.
func TimeQuery(cpu *isa.CPU, q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind) (*QueryRun, error) {
	qp, err := planQuery(cpu, q, st, nominalSF, kind)
	if err != nil {
		return nil, err
	}
	return qp.time(&hef.SimStack{}, nil)
}
