// Command ssbbench regenerates the SSB experiments of the paper: the
// per-query execution times of Figs. 8-10 and the perf-counter breakdowns
// of Tables III-V.
//
// The -all sweep (six figures: both CPUs at SF 10/20/50) runs on the sweep
// worker loop with checkpoint support: Ctrl-C, SIGTERM, or -timeout
// drains cleanly between figures, flushes -checkpoint, and a
// later -resume run re-computes only the missing figures — emitting output
// byte-identical to an uninterrupted sweep. Outside -all, -timeout is a
// watchdog: a figure or table that overruns it exits 1.
//
// Usage:
//
//	ssbbench -cpu silver -sf 10                # one figure
//	ssbbench -all                              # Figs. 8, 9, 10 on both CPUs
//	ssbbench -all -checkpoint ssb.ckpt         # interruptible sweep
//	ssbbench -table 3                          # Table III (Q3.3, SF10, Silver)
//	ssbbench -cpu gold -sf 50 -queries Q2.1 -stages
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hef/internal/experiments"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/queries"
	"hef/internal/sched"
	"hef/internal/sweepcli"
)

func main() {
	sw := sweepcli.Register(flag.CommandLine, "ssbbench", "figures", "-all sweep")
	cpu := flag.String("cpu", "silver", `CPU model: "silver" or "gold"`)
	sf := flag.Float64("sf", 10, "nominal scale factor (the paper uses 10, 20, 50)")
	sample := flag.Float64("sample", 0.01, "functional sampling scale factor")
	seed := flag.Uint64("seed", 20230401, "data generator seed")
	queryList := flag.String("queries", "", "comma-separated query IDs (default: the paper's ten)")
	table := flag.Int("table", 0, "print paper Table 3, 4, or 5 instead of a figure")
	all := flag.Bool("all", false, "run Figs. 8-10 on both CPUs")
	stages := flag.Bool("stages", false, "print per-stage timing detail")
	format := flag.String("format", "text", `output format: "text", "csv", or "markdown"`)
	jsonOut := flag.Bool("json", false, "emit a machine-readable run report (obs.RunReport JSON)")
	csvOut := flag.Bool("csv", false, `shorthand for -format csv`)
	traceOut := flag.String("trace-out", "", "with -all: write the sweep-lifecycle spans (queue waits, figure runs, checkpoint flushes) as Chrome trace-event JSON to this file")
	flag.Parse()

	outFormat = *format
	if *csvOut {
		outFormat = "csv"
	}
	if *jsonOut {
		outFormat = "json"
	}
	qs, err := validate(*cpu, *sf, *sample, *table, *queryList, outFormat, *all, sw.Checkpoint, sw.Resume)
	if err != nil {
		sw.UsageError(err)
	}
	if *traceOut != "" && !*all {
		sw.UsageError(fmt.Errorf("-trace-out records the sweep lifecycle and needs -all"))
	}
	if sw.Coordinator != "" && !*all {
		sw.UsageError(fmt.Errorf("-coordinator distributes the figure matrix and needs -all"))
	}
	sw.Trace = *traceOut != ""
	ses = sw.Start()
	defer ses.Close()

	if *all {
		runAll(*sample, *seed)
		if err := ses.Tel.WriteTrace(*traceOut); err != nil {
			ses.Fail(err)
		}
		return
	}

	if ses.Timeout > 0 {
		// The single-figure and table drivers are straight-line simulation
		// loops with no cancellation points, so the timeout is a watchdog:
		// exceed it and the process exits non-zero instead of stalling a
		// batch pipeline.
		go func() {
			time.Sleep(ses.Timeout)
			fmt.Fprintf(os.Stderr, "%s: timed out after %v\n", "ssbbench", ses.Timeout)
			ses.Prof.Stop()
			os.Exit(1)
		}()
	}

	if *table != 0 {
		if err := printTable(*table, *sample, *seed); err != nil {
			ses.Fail(err)
		}
		return
	}
	if err := printFigure(*cpu, *sf, *sample, *seed, qs, *stages); err != nil {
		ses.Fail(err)
	}
}

// ses is the started sweep session: telemetry, profiles, and the -memo-dir
// store whose cache every figure of the run shares.
var ses *sweepcli.Session

// validate rejects bad flag combinations before any simulation, exit 2. It
// returns the resolved query restriction so a typo in -queries is a usage
// error, not a mid-run failure.
func validate(cpu string, sf, sample float64, table int, queryList, format string, all bool, checkpoint, resume string) ([]queries.Query, error) {
	if _, err := isa.ByName(cpu); err != nil {
		return nil, fmt.Errorf("-cpu: %w", err)
	}
	if sf != sf || sf <= 0 {
		return nil, fmt.Errorf("-sf must be positive, got %g", sf)
	}
	if sample != sample || sample <= 0 || sample > 1 {
		return nil, fmt.Errorf("-sample must be in (0, 1], got %g", sample)
	}
	if table != 0 && table != 3 && table != 4 && table != 5 {
		return nil, fmt.Errorf("-table must be 3, 4, or 5, got %d", table)
	}
	switch format {
	case "text", "csv", "markdown", "json":
	default:
		return nil, fmt.Errorf("-format must be text, csv, markdown, or json, got %q", format)
	}
	if !all && (checkpoint != "" || resume != "") {
		return nil, fmt.Errorf("-checkpoint/-resume apply to the -all sweep only")
	}
	var qs []queries.Query
	if queryList != "" {
		for _, id := range strings.Split(queryList, ",") {
			q, err := queries.Get(strings.TrimSpace(id))
			if err != nil {
				return nil, fmt.Errorf("-queries: %w", err)
			}
			qs = append(qs, q)
		}
	}
	return qs, nil
}

// figCell is the checkpointable outcome of one figure of the -all sweep:
// either the pre-rendered text/csv/markdown output or the machine-readable
// report, depending on the (fingerprinted) output format.
type figCell struct {
	Text   string         `json:"text,omitempty"`
	Report *obs.RunReport `json:"report,omitempty"`
}

// runAll executes the six-figure sweep on the sweep worker loop with
// graceful drain and checkpoint/resume; with a coordinator it leases figure
// ranges as a distributed sweep worker instead.
func runAll(sample float64, seed uint64) {
	fingerprint := fmt.Sprintf("all sample=%g seed=%d format=%s", sample, seed, outFormat)
	var tasks []sched.Task[*figCell]
	for _, c := range []string{"silver", "gold"} {
		for _, sf := range []float64{10, 20, 50} {
			c, sf := c, sf
			tasks = append(tasks, sched.Task[*figCell]{
				ID: fmt.Sprintf("%s/sf%g", c, sf),
				Run: func(context.Context) (*figCell, error) {
					fig, err := runFigure(c, sf, sample, seed, nil)
					if err != nil {
						return nil, err
					}
					cell := &figCell{}
					switch outFormat {
					case "json":
						cell.Report = fig.Report()
						// A shared persistent cache's counters depend on
						// figure order and resume state; strip them so the
						// checkpointed report stays resume-invariant (the
						// aggregate is re-attached at emit).
						if ses.Memo != nil {
							cell.Report.Memo = nil
						}
					case "csv":
						cell.Text = fig.CSV()
					case "markdown":
						cell.Text = fig.Markdown()
					default:
						cell.Text = fig.String() + "\n"
					}
					return cell, nil
				},
			})
		}
	}
	results := sweepcli.Run(ses, fingerprint, tasks)
	if results == nil {
		return
	}

	// Emit in task order, not completion order, so the output is identical
	// however the pool interleaved (or resumed) the work.
	ses.CloseStore()
	if outFormat == "json" {
		var reports []*obs.RunReport
		for _, t := range tasks {
			reports = append(reports, results[t.ID].Report)
		}
		merged := experiments.MergeReports("ssbbench", reports...)
		ses.AttachMemo(merged)
		emitJSON(merged)
		return
	}
	for _, t := range tasks {
		fmt.Print(results[t.ID].Text)
	}
}

// runFigure runs one figure with a measurement memo so stages shared across
// queries and engines are simulated once: a fresh per-figure cache, or — under
// -memo-dir — the run-wide persistent cache. A figure's numbers are
// byte-identical for every -parallel setting and either cache, which keeps
// -parallel and -memo-dir out of the checkpoint fingerprint; only the cache
// counters vary with sharing, so under -memo-dir they are stripped from
// checkpointed reports and re-attached in aggregate at emit time.
func runFigure(cpu string, sf, sample float64, seed uint64, qs []queries.Query) (*experiments.Figure, error) {
	cache := ses.Memo
	if cache == nil {
		cache = memo.NewCache()
	}
	return experiments.RunFigure(experiments.FigureConfig{
		CPUName: cpu, NominalSF: sf, SampleSF: sample, Seed: seed, Queries: qs,
		Memo: cache, Parallel: ses.Parallel,
	})
}

func printFigure(cpu string, sf, sample float64, seed uint64, qs []queries.Query, stages bool) error {
	fig, err := runFigure(cpu, sf, sample, seed, qs)
	if err != nil {
		return err
	}
	ses.CloseStore()
	switch outFormat {
	case "json":
		rep := fig.Report()
		ses.AttachMemo(rep)
		emitJSON(rep)
	case "csv":
		fmt.Print(fig.CSV())
	case "markdown":
		fmt.Print(fig.Markdown())
	default:
		fmt.Println(fig.String())
	}
	if stages {
		for _, id := range fig.Order {
			for _, kind := range experiments.AllEngines {
				run := fig.Runs[id][kind]
				fmt.Printf("%s %v (%.1fms, IPC %.2f, %.2f GHz):\n", id, kind, run.Seconds*1e3, run.IPC(), run.FreqGHz)
				for _, st := range run.Stages {
					if st.Stage.Elems == 0 {
						continue
					}
					fmt.Printf("  %-18s %12d elems %9.2fms  IPC %.2f\n",
						st.Stage.Name, st.Stage.Elems, st.Seconds*1e3, st.Res.IPC())
				}
			}
		}
	}
	return nil
}

// printTable reproduces Table III (Q3.3, SF10, Silver), Table IV (Q2.3,
// SF20, Silver), or Table V (Q2.1, SF50, Gold).
func printTable(n int, sample float64, seed uint64) error {
	var cpu, query string
	var sf float64
	switch n {
	case 3:
		cpu, query, sf = "silver", "Q3.3", 10
	case 4:
		cpu, query, sf = "silver", "Q2.3", 20
	case 5:
		cpu, query, sf = "gold", "Q2.1", 50
	default:
		return fmt.Errorf("ssbbench: -table must be 3, 4, or 5")
	}
	q, err := queries.Get(query)
	if err != nil {
		return err
	}
	fig, err := experiments.RunFigure(experiments.FigureConfig{
		CPUName: cpu, NominalSF: sf, SampleSF: sample, Seed: seed,
		Queries: []queries.Query{q}, Memo: ses.Memo,
	})
	if err != nil {
		return err
	}
	ses.CloseStore()
	switch outFormat {
	case "json":
		rep := fig.Report()
		rep.Params["table"] = fmt.Sprintf("%d", n)
		ses.AttachMemo(rep)
		emitJSON(rep)
		return nil
	case "csv":
		fmt.Print(fig.CSV())
		return nil
	}
	tbl, err := fig.CounterTable(query)
	if err != nil {
		return err
	}
	fmt.Printf("Paper Table %s analogue:\n%s", map[int]string{3: "III", 4: "IV", 5: "V"}[n], tbl)
	return nil
}

// emitJSON prints a run report as indented JSON on stdout, attaching the
// emit-time telemetry block when a session is live. Checkpointed reports
// never pass through here, so they stay telemetry-free.
func emitJSON(rep *obs.RunReport) {
	ses.Tel.AttachReport(rep)
	data, err := rep.MarshalIndent()
	if err != nil {
		ses.Fail(err)
	}
	os.Stdout.Write(data)
}

// outFormat selects the figure rendering ("text", "csv", "markdown", "json").
var outFormat = "text"
