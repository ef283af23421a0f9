// Command hefopt runs HEF's offline optimization on an operator: candidate
// generation from processor/instruction information, then the pruning
// search, printing the optimal (v, s, p) node, the generated code, and the
// search trace.
//
// -op accepts a comma-separated list; a multi-operator batch runs on the
// sweep worker loop with checkpoint support, so an interrupted batch
// (Ctrl-C, SIGTERM, -timeout) drains cleanly, flushes -checkpoint, and a
// later -resume run re-does only the missing operators — emitting the same
// report an uninterrupted batch would have.
//
// Usage:
//
//	hefopt -cpu silver -op murmur -show-code
//	hefopt -cpu gold -op crc64 -trace
//	hefopt -cpu silver -file ops.hid -op myop
//	hefopt -op murmur,crc64,probe,filter,agg,bloom -json -checkpoint opt.ckpt
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"hef/internal/core"
	"hef/internal/experiments"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/sweepcli"
	"hef/internal/uarch"
)

func main() {
	sw := sweepcli.Register(flag.CommandLine, "hefopt", "operators", "batch")
	cpuName := flag.String("cpu", "silver", `CPU model: "silver", "gold", "neoverse" or "zen"`)
	op := flag.String("op", "murmur", "comma-separated operators (murmur, crc64, probe, filter, agg, bloom) or template names with -file")
	file := flag.String("file", "", "operator template file to load instead of the built-ins")
	elems := flag.Int64("elems", 1<<14, "synthetic test size per evaluation")
	showCode := flag.Bool("show-code", false, "print the generated code at the optimum (Fig. 6 analogue)")
	trace := flag.Bool("trace", false, "print every tested node (the search trace)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable run report (obs.RunReport JSON) instead of text")
	dotOut := flag.String("dot", "", "write the pruning search as a Graphviz digraph to this file (single operator only)")
	budget := flag.Int("budget", 0, "cap on node evaluations; on exhaustion the best-so-far node is reported as partial (0 = unlimited)")
	flag.Parse()

	ops := sweepcli.SplitList(*op)
	if err := validate(ops, *cpuName, *file, *dotOut, *elems, *budget); err != nil {
		sw.UsageError(err)
	}
	s := sw.Start()
	defer s.Close()

	// -parallel is deliberately NOT part of the fingerprint: the wave search
	// and the memo cache are byte-identical to the serial run, so checkpoints
	// transfer across worker counts.
	fingerprint := fmt.Sprintf("cpu=%s op=%s file=%s elems=%d budget=%d code=%t trace=%t dot=%t",
		*cpuName, strings.Join(ops, ","), fileDigest(*file), *elems, *budget, *showCode, *trace, *dotOut != "")

	// One measurement memo for the whole batch: the search populates it and
	// the per-flavour re-measurements (and any operator sharing a translated
	// program) hit it. Shared live state, so its counters are reported to
	// stderr only — the checkpointed reports stay resume-invariant. With
	// -memo-dir the cache is backed by the durable store, whose block is
	// attached to the emitted report at emit time only.
	cache := s.Memo
	if cache == nil {
		cache = memo.NewCache()
	}
	// One framework for the whole batch too: its simulators serve every
	// operator's search and re-measurements, whichever worker runs them.
	fw, err := core.New(*cpuName, core.WithTestElems(*elems))
	if err != nil {
		s.Fail(err)
	}
	var tasks []sched.Task[*opResult]
	for _, name := range ops {
		name := name
		tasks = append(tasks, sched.Task[*opResult]{
			ID: name,
			Run: func(jctx context.Context) (*opResult, error) {
				return runOne(jctx, fw, name, *file, *budget, s.Parallel, *showCode, *trace, *dotOut != "", cache)
			},
		})
	}
	results := sweepcli.Run(s, fingerprint, tasks)
	if results == nil {
		return
	}

	// Emit in task order, not completion order, so the output is identical
	// however the pool interleaved (or resumed) the work.
	for _, t := range tasks {
		if note := results[t.ID].Note; note != "" {
			fmt.Fprintf(os.Stderr, "hefopt: %s: %s\n", t.ID, note)
		}
	}
	if st := cache.Stats(); st.Hits+st.Misses > 0 {
		fmt.Fprintf(os.Stderr, "hefopt: memo cache: %d hits / %d misses (%.0f%% hit rate, %d entries)\n",
			st.Hits, st.Misses, st.HitRate()*100, st.Entries)
	}
	s.CloseStore()
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(results[tasks[0].ID].Dot), 0o644); err != nil {
			s.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "hefopt: wrote search digraph to %s (render with dot -Tsvg)\n", *dotOut)
	}
	if *jsonOut {
		// A single operator keeps the classic single-report shape; a batch
		// merges the per-operator reports into one document.
		var rep *obs.RunReport
		if len(tasks) == 1 {
			rep = results[tasks[0].ID].Report
		} else {
			var reports []*obs.RunReport
			for _, t := range tasks {
				reports = append(reports, results[t.ID].Report)
			}
			rep = experiments.MergeReports("hefopt", reports...)
		}
		// The memo and telemetry blocks join the report at emit time only.
		s.AttachMemo(rep)
		s.Tel.AttachReport(rep)
		data, err := rep.MarshalIndent()
		if err != nil {
			s.Fail(err)
		}
		os.Stdout.Write(data)
		return
	}
	for i, t := range tasks {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(results[t.ID].Text)
	}
}

// opResult is the checkpointable outcome of one operator's optimization:
// everything the CLI prints, pre-rendered, so a resumed batch emits the
// same bytes without re-running the search.
type opResult struct {
	Op string `json:"op"`
	// Text is the rendered text-mode output (including trace/code when
	// those flags are set — they are part of the checkpoint fingerprint).
	Text string `json:"text"`
	// Note is a non-fatal degradation notice (budget exhausted), printed to
	// stderr.
	Note string `json:"note,omitempty"`
	// Dot is the Graphviz digraph of the search when -dot was requested.
	Dot    string         `json:"dot,omitempty"`
	Report *obs.RunReport `json:"report"`
}

// runOne optimizes a single operator and renders every output form. A
// budget stop degrades gracefully to a deterministic best-so-far partial
// result; a cancellation fails the job so a resumed run re-does it in full.
func runOne(ctx context.Context, fw *core.Framework, opName, file string, budget, parallel int, showCode, trace, wantDot bool, cache *memo.Cache) (*opResult, error) {
	var src []byte
	if file != "" {
		var err error
		if src, err = os.ReadFile(file); err != nil {
			return nil, err
		}
	}
	tmpl, err := core.OperatorTemplate(opName, string(src))
	if err != nil {
		return nil, err
	}
	opt, err := fw.OptimizeAndMeasure(ctx, "hefopt", tmpl, core.OptimizeOptions{Budget: budget, Parallel: parallel, Memo: cache})
	if err != nil {
		return nil, err
	}
	out := &opResult{Op: tmpl.Name, Report: opt.Report}
	if opt.Stopped != nil {
		out.Note = fmt.Sprintf("search stopped early (%v); reporting best-so-far", opt.Stopped)
	}
	nsPerElem := func(res *uarch.Result) float64 { return res.Seconds() / float64(res.Elems) * 1e9 }
	scalarNS, simdNS := nsPerElem(opt.Scalar), nsPerElem(opt.SIMD)

	var b strings.Builder
	fmt.Fprintf(&b, "operator %s on %s\n", tmpl.Name, fw.CPU().Name)
	fmt.Fprintf(&b, "initial candidate (two-stage model): %v\n", opt.Initial)
	optLabel := ""
	if opt.Partial {
		optLabel = "  (partial: best-so-far)"
	}
	fmt.Fprintf(&b, "optimal implementation:              %v%s\n", opt.Node, optLabel)
	fmt.Fprintf(&b, "per-element cost at optimum:         %.3f ns\n", opt.SecondsPerElem()*1e9)
	fmt.Fprintf(&b, "nodes tested: %d of %d (pruned %.0f%%)\n",
		opt.Search.Tested, opt.Search.SpaceSize, opt.Search.PrunedFraction()*100)
	optNS := opt.SecondsPerElem() * 1e9
	fmt.Fprintf(&b, "speedup over purely scalar: %.2fx   over purely SIMD: %.2fx\n",
		scalarNS/optNS, simdNS/optNS)
	if trace {
		fmt.Fprintf(&b, "\nsearch trace:\n")
		for _, st := range opt.Search.Trace {
			verdict := "pruned"
			if st.Winner {
				verdict = "candidate"
			}
			fmt.Fprintf(&b, "  %-16s %8.3f ns/elem  parent %-16s %s\n",
				st.Node.String(), st.Seconds*1e9, st.Parent.String(), verdict)
		}
	}
	if showCode {
		fmt.Fprintf(&b, "\ngenerated code at the optimum:\n%s\n", opt.Source())
	}
	out.Text = b.String()
	if wantDot {
		out.Dot = obs.SearchDOT(opt.Search)
	}
	return out, nil
}

// validate rejects bad flag combinations before any simulation, exit 2.
func validate(ops []string, cpuName, file, dotOut string, elems int64, budget int) error {
	if len(ops) == 0 {
		return fmt.Errorf("-op selects no operators")
	}
	if _, err := isa.ByName(cpuName); err != nil {
		return fmt.Errorf("-cpu: %w", err)
	}
	if file == "" {
		for _, name := range ops {
			if _, err := experiments.OpTemplate(name); err != nil {
				return fmt.Errorf("-op: %w", err)
			}
		}
	}
	if dotOut != "" && len(ops) > 1 {
		return fmt.Errorf("-dot writes one search digraph; use a single -op operator")
	}
	if elems <= 0 {
		return fmt.Errorf("-elems must be positive, got %d", elems)
	}
	if budget < 0 {
		return fmt.Errorf("-budget must be non-negative, got %d", budget)
	}
	return nil
}

// fileDigest fingerprints a -file template source so a checkpoint taken
// against one version of the file is refused against another.
func fileDigest(path string) string {
	if path == "" {
		return ""
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return path // resolution fails later with a clear error
	}
	return fmt.Sprintf("%s@%x", path, sha256.Sum256(src))
}
