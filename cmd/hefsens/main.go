// Command hefsens measures how robust HEF's discovered optima are to machine
// model error: it re-runs the pruning search across an ensemble of
// deterministically perturbed CPU models (jittered instruction latencies and
// throughputs, cache latencies, AVX-license frequencies, transient port
// faults) and reports optimum stability, the regret of shipping the
// unperturbed pick, and candidate rank churn.
//
// The output is deterministic byte-for-byte for fixed flags: the report
// carries no timestamps and every perturbation draw hashes from -seed. The
// (op, cpu) analyses run on a supervised worker pool with retry and
// checkpoint support, so a long sweep survives interruption: Ctrl-C (or
// SIGTERM, or -timeout) drains cleanly, flushes -checkpoint, and a later
// -resume run re-does only the missing pairs — producing the same bytes an
// uninterrupted run would have.
//
// Usage:
//
//	hefsens -seed 1 -trials 20 -jitter 0.05 [-cpu silver,gold] [-op murmur,probe] [-json]
//	hefsens -trials 50 -op murmur,crc64,probe,filter,agg,bloom -checkpoint sens.ckpt
//	hefsens ... -resume sens.ckpt -checkpoint sens.ckpt   # continue after an interrupt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hef/internal/experiments"
	"hef/internal/isa"
	"hef/internal/robust"
	"hef/internal/sched"
	"hef/internal/sweepcli"
)

func main() {
	sw := sweepcli.Register(flag.CommandLine, "hefsens", "analyses", "sweep")
	seed := flag.Uint64("seed", 1, "perturbation ensemble seed")
	trials := flag.Int("trials", 20, "number of perturbed models per (op, cpu) pair")
	jitter := flag.Float64("jitter", 0.05, "relative jitter half-width for latencies, throughputs, cache, and frequencies (0.05 = ±5%)")
	portFault := flag.Float64("portfault", 0, "transient port-unavailable probability per (port, cycle)")
	cpus := flag.String("cpu", "silver,gold", "comma-separated CPU models to analyze")
	ops := flag.String("op", "murmur,probe", "comma-separated operators (murmur, crc64, probe, filter, agg, bloom)")
	elems := flag.Int64("elems", 1<<12, "synthetic elements per candidate evaluation")
	budget := flag.Int("budget", 0, "cap on node evaluations per search (0 = unlimited)")
	jsonOut := flag.Bool("json", false, "emit the versioned sensitivity report as JSON")
	flag.Parse()

	if err := validate(*trials, *jitter, *portFault, *elems, *budget); err != nil {
		sw.UsageError(err)
	}
	// Resolve every CPU and operator up front so a typo is a usage error
	// before any simulation starts, not a mid-sweep failure.
	type pair struct {
		cpuName, opName string
		cpu             *isa.CPU
	}
	var pairs []pair
	for _, cpuName := range sweepcli.SplitList(*cpus) {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			sw.UsageError(fmt.Errorf("-cpu: %w", err))
		}
		for _, opName := range sweepcli.SplitList(*ops) {
			if _, err := experiments.OpTemplate(opName); err != nil {
				sw.UsageError(fmt.Errorf("-op: %w", err))
			}
			pairs = append(pairs, pair{cpuName, opName, cpu})
		}
	}
	if len(pairs) == 0 {
		sw.UsageError(fmt.Errorf("no (op, cpu) pairs selected: -cpu %q -op %q", *cpus, *ops))
	}
	s := sw.Start()
	defer s.Close()

	// The fingerprint covers every flag that shapes an analysis value, so a
	// checkpoint from a different configuration is refused, not mixed in.
	// -parallel is deliberately NOT part of it: the search is byte-identical
	// for every worker count, so checkpoints interchange freely across it.
	// Nor is -memo-dir: its cache is keyed by the perturbed machine
	// fingerprint, so sharing it never mixes models — it only lets repeated
	// and resumed runs reuse measurements.
	fingerprint := fmt.Sprintf("seed=%d trials=%d jitter=%g portfault=%g elems=%d budget=%d cpu=%s op=%s",
		*seed, *trials, *jitter, *portFault, *elems, *budget, *cpus, *ops)

	var tasks []sched.Task[*robust.Sensitivity]
	for _, p := range pairs {
		p := p
		tasks = append(tasks, sched.Task[*robust.Sensitivity]{
			ID:  p.cpuName + "/" + p.opName,
			Key: p.cpuName,
			Run: func(jctx context.Context) (*robust.Sensitivity, error) {
				tmpl, err := experiments.OpTemplate(p.opName)
				if err != nil {
					return nil, err
				}
				return robust.Analyze(jctx, robust.SensConfig{
					CPU:           p.cpu,
					Template:      tmpl,
					Elems:         *elems,
					Seed:          *seed,
					Trials:        *trials,
					Jitter:        *jitter,
					PortFaultRate: *portFault,
					Budget:        *budget,
					Parallel:      s.Parallel,
					Memo:          s.Memo,
				})
			},
		})
	}
	results := sweepcli.Run(s, fingerprint, tasks)
	if results == nil {
		return
	}
	// The sensitivity report schema carries no memo block, so the store's
	// counters go to stderr only.
	s.CloseStore()

	// Assemble the report in task order, not completion order, so the bytes
	// are identical however the pool interleaved (or resumed) the work.
	report := robust.NewReport(*seed, *trials, *jitter, *portFault)
	for _, t := range tasks {
		report.Add(results[t.ID])
	}

	if *jsonOut {
		data, err := report.JSON()
		if err != nil {
			s.Fail(err)
		}
		os.Stdout.Write(data)
		return
	}
	printText(report)
}

// validate rejects nonsensical flag combinations before any simulation.
func validate(trials int, jitter, portFault float64, elems int64, budget int) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	if jitter != jitter || jitter < 0 || jitter >= 1 {
		return fmt.Errorf("-jitter must be in [0, 1), got %g", jitter)
	}
	if portFault != portFault || portFault < 0 || portFault >= 1 {
		return fmt.Errorf("-portfault must be in [0, 1), got %g", portFault)
	}
	if elems <= 0 {
		return fmt.Errorf("-elems must be positive, got %d", elems)
	}
	if budget < 0 {
		return fmt.Errorf("-budget must be non-negative, got %d", budget)
	}
	return nil
}

func printText(r *robust.Report) {
	fmt.Printf("sensitivity: seed=%d trials=%d jitter=±%g%%", r.Seed, r.Trials, r.Jitter*100)
	if r.PortFaultRate > 0 {
		fmt.Printf(" portfault=%g", r.PortFaultRate)
	}
	fmt.Println()
	fmt.Printf("%-10s %-22s %-14s %9s %11s %11s %10s\n",
		"op", "cpu", "baseline", "stability", "mean regret", "max regret", "rank churn")
	for _, s := range r.Analyses {
		fmt.Printf("%-10s %-22s %-14s %8.0f%% %10.2f%% %10.2f%% %10.3f\n",
			s.Op, s.CPU, s.Baseline, s.Stability*100, s.MeanRegretPct, s.MaxRegretPct, s.MeanRankChurn)
	}
	fmt.Println()
	fmt.Println("stability:   fraction of perturbed models whose optimum (v,s,p) matches the baseline pick")
	fmt.Println("regret:      extra per-element cost of shipping the baseline pick onto a perturbed machine")
	fmt.Println("rank churn:  normalized Spearman footrule distance between candidate rankings (0 = stable)")
}
