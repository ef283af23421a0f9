package experiments

import (
	"fmt"

	"hef/internal/hef"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/telemetry"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// RunReport builders: every figure/table driver can emit its measurements
// as the versioned obs.RunReport schema, the machine-readable form behind
// the -json flags and the BENCH_*.json snapshots.

// Report renders the figure as a run report: one run per (query, engine)
// cell, iterated in the figure's query order and the canonical engine order.
func (f *Figure) Report() *obs.RunReport {
	rep := obs.NewReport("ssbbench")
	rep.CPU = f.CPU.Name
	rep.Params["sf"] = fmt.Sprintf("%g", f.NominalSF)
	rep.Params["sample_sf"] = fmt.Sprintf("%g", f.SampleSF)
	kinds := f.kinds()
	for _, id := range f.Order {
		for _, k := range kinds {
			run := f.Runs[id][k]
			r := obs.RunFromResult(id, k.String(), nodeFor(k).String(), &run.Total, run.Seconds)
			r.FreqGHz = run.FreqGHz
			rep.Runs = append(rep.Runs, r)
		}
	}
	rep.Memo = obs.MemoFromStats(f.MemoStats)
	return rep
}

// Report renders the hash benchmark as a run report (scalar, SIMD, hybrid)
// plus the pruning search that found the hybrid node.
func (b *HashBench) Report() *obs.RunReport {
	rep := obs.NewReport("uopshist")
	rep.CPU = b.CPU.Name
	rep.Params["bench"] = b.Name
	for _, hr := range []*HashRun{b.Scalar, b.SIMD, b.Hybrid} {
		r := obs.RunFromResult(b.Name, hr.Label, hr.Node.String(), hr.Res, hr.Res.Seconds())
		r.CPU = b.CPU.Name
		rep.Runs = append(rep.Runs, r)
	}
	rep.Search = obs.SearchFromResult(b.Search)
	return rep
}

// MergeReports combines per-benchmark reports into one document (used when
// a tool sweeps benchmarks and CPUs); each run is tagged with its source
// CPU, and the shared CPU field is cleared when they differ.
func MergeReports(tool string, reports ...*obs.RunReport) *obs.RunReport {
	merged := obs.NewReport(tool)
	sameCPU := true
	for _, rep := range reports {
		if rep.CPU != reports[0].CPU {
			sameCPU = false
		}
	}
	for _, rep := range reports {
		for _, run := range rep.Runs {
			if run.CPU == "" {
				run.CPU = rep.CPU
			}
			merged.Runs = append(merged.Runs, run)
		}
		for k, v := range rep.Params {
			merged.Params[k] = v
		}
		if rep.Search != nil && merged.Search == nil {
			merged.Search = rep.Search
		}
		// Memo counters sum: each source report snapshots its own cache.
		if rep.Memo != nil {
			if merged.Memo == nil {
				merged.Memo = &obs.MemoStats{}
			}
			merged.Memo.Hits += rep.Memo.Hits
			merged.Memo.Misses += rep.Memo.Misses
			merged.Memo.Entries += rep.Memo.Entries
		}
	}
	if merged.Memo != nil {
		if t := merged.Memo.Hits + merged.Memo.Misses; t > 0 {
			merged.Memo.HitRate = float64(merged.Memo.Hits) / float64(t)
		}
	}
	if sameCPU && len(reports) > 0 {
		merged.CPU = reports[0].CPU
	}
	return merged
}

// TraceHashRun re-runs one hash-kernel implementation with a span tracer
// attached and returns the recorded per-instruction spans (for Chrome trace
// export) alongside the counters. iters bounds the traced loop iterations
// (<= 0 selects 64, enough to show steady state without flooding the
// viewer).
func TraceHashRun(cpuName, benchName string, node translator.Node, iters int64) ([]telemetry.Span, *uarch.Result, error) {
	cpu, err := isa.ByName(cpuName)
	if err != nil {
		return nil, nil, err
	}
	tmpl, err := hashTemplate(benchName)
	if err != nil {
		return nil, nil, err
	}
	out, err := translator.Translate(tmpl, node, translator.Options{CPU: cpu})
	if err != nil {
		return nil, nil, err
	}
	if iters <= 0 {
		iters = 64
	}
	sim := uarch.NewSim(cpu)
	tr := telemetry.NewTracer()
	sim.SetTracer(tr)
	plan := memo.Plan{Proto: memo.ProtoStage, Prog: out.Program, Iters: iters}
	res, err := plan.Measure(sim)
	if err != nil {
		return nil, nil, err
	}
	return tr.Spans(), res, nil
}

// TraceHashBench traces three implementations of one kernel — the pure
// scalar and SIMD baselines and the candidate generator's initial hybrid
// node — and returns them as named sections for obs.ChromeTrace.
func TraceHashBench(cpuName, benchName string, iters int64) ([]obs.TraceSection, error) {
	cpu, err := isa.ByName(cpuName)
	if err != nil {
		return nil, err
	}
	tmpl, err := hashTemplate(benchName)
	if err != nil {
		return nil, err
	}
	initial, err := hef.InitialNode(cpu, tmpl, 0)
	if err != nil {
		return nil, err
	}
	impls := []struct {
		Label string
		Node  translator.Node
	}{
		{"scalar", translator.Node{V: 0, S: 1, P: 1}},
		{"simd", translator.Node{V: 1, S: 0, P: 1}},
		{"hybrid-initial", initial},
	}
	var sections []obs.TraceSection
	for _, im := range impls {
		spans, _, err := TraceHashRun(cpuName, benchName, im.Node, iters)
		if err != nil {
			return nil, fmt.Errorf("experiments: tracing %s %s: %w", benchName, im.Label, err)
		}
		sections = append(sections, obs.TraceSection{
			Name:  fmt.Sprintf("%s %s %s on %s", benchName, im.Label, im.Node.String(), cpu.Name),
			Spans: spans,
		})
	}
	return sections, nil
}
