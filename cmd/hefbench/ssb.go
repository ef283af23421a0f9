package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hef/internal/engine"
	"hef/internal/experiments"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
)

// ssbParams sizes the ssb-figures workload.
type ssbParams struct {
	cpus      []string
	sfs       []float64
	sampleSF  float64
	queries   []queries.Query // nil selects the paper's ten
	dataSeed  uint64
	parallel  int
	minRounds int
	setupReps int
}

// defaultSSBParams: Figs. 8-10 on silver, each figure with a fresh memo and
// two stage workers. Seed 1 maps to ssbbench's default data seed.
//
// Two choices keep the run steady. The sample scale is 0.03 rather than
// ssbbench's 0.01: at 0.01 rare filters select no sample rows on some
// seeds, dropping stages, so the simulated work swings ±8% across seeds; at
// 0.03 it holds within ±1%. And the gold half of ssbbench -all is left out:
// the full six-figure matrix fits only two rounds in a run, and with it the
// run-to-run spread of the figures' times was 18-38%.
func defaultSSBParams(seed uint64) ssbParams {
	dataSeed := seed
	if seed == 1 {
		dataSeed = 20230401
	}
	return ssbParams{
		cpus: []string{"silver"}, sfs: []float64{10, 20, 50}, sampleSF: 0.03,
		dataSeed: dataSeed, parallel: 2, minRounds: 3, setupReps: 5,
	}
}

func runSSB(b *bench, p ssbParams) error {
	qs := p.queries
	if qs == nil {
		qs = queries.Evaluated()
	}
	// Setup generates the sample data and answers each query on the hybrid
	// kernels; every figure's functional sums (computed on the scalar ones)
	// must match, on every seed.
	want := map[string]uint64{}
	setups, err := b.timeSetups(p.setupReps, func() error {
		data := ssb.Generate(p.sampleSF, p.dataSeed)
		for _, q := range qs {
			res, err := queries.Execute(q, data, engine.Hybrid)
			if err != nil {
				return fmt.Errorf("%s: %w", q.ID, err)
			}
			want[q.ID] = res.Sum
		}
		return nil
	})
	if err != nil {
		return err
	}
	budget := b.budget
	if b.trace {
		budget /= 2
	}
	plain := ssbPass(b, p, qs, want, budget, nil)
	b.emitEndToEnd(setups, plain)
	b.line("rounds", float64(plain.rounds), "count")
	if !b.trace {
		return nil
	}
	rec := newRecorder()
	traced := ssbPass(b, p, qs, want, budget, rec)
	b.emitPerLayer(plain, traced, rec.snapshot())
	return nil
}

// ssbPass runs whole matrices until the next would overrun the budget, and
// at least p.minRounds.
func ssbPass(b *bench, p ssbParams, qs []queries.Query, want map[string]uint64, budget time.Duration, rec *recorder) *pass {
	out := startPass()
	deadline := out.from.at.Add(budget)
	var rounds []float64
	for n := 0; n < p.minRounds || time.Until(deadline).Seconds() >= rounds[n-1]; n++ {
		t0 := time.Now()
		sc, endRound := rec.root(fmt.Sprintf("round %d", n)).span("bench", "round")
		for _, cpu := range p.cpus {
			for _, sf := range p.sfs {
				label := fmt.Sprintf("%s sf%g", cpu, sf)
				t, c := time.Now(), processCPU()
				_, end := sc.withReq(fmt.Sprintf("round %d %s", n, label)).span("experiments", "RunFigure")
				fig, err := experiments.RunFigure(experiments.FigureConfig{
					CPUName: cpu, NominalSF: sf, SampleSF: p.sampleSF, Seed: p.dataSeed, Queries: qs,
					Memo: memo.NewCache(), Parallel: p.parallel,
				})
				end()
				out.addOp(fmt.Sprintf("%s-sf%g", cpu, sf), time.Since(t), processCPU()-c)
				out.ops++
				if err != nil {
					b.failf("%s: %v", label, err)
					b.op(false)
					continue
				}
				b.op(checkFigure(b, p, fig, want))
			}
		}
		endRound()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	out.stop()
	out.rounds = len(rounds)
	out.finishFastest()
	return out
}

// checkFigure checks a figure's functional sums against the setup's hybrid
// answers and its simulated cycles per cell against the goldens and
// earlier rounds.
func checkFigure(b *bench, p ssbParams, fig *experiments.Figure, want map[string]uint64) bool {
	data := fmt.Sprintf("ssb seed=%d sample=%g", p.dataSeed, p.sampleSF)
	ok := true
	for _, id := range fig.Order {
		if got := fig.Sums[id]; got != want[id] {
			b.failf("%s %s: functional sum %d, hybrid kernels %d", fig.Label, id, got, want[id])
			ok = false
		}
		ok = b.check(fmt.Sprintf("%s %s sum", data, id), strconv.FormatUint(fig.Sums[id], 10)) && ok
		var cells []string
		for kind, run := range fig.Runs[id] {
			cells = append(cells, fmt.Sprintf("%s=%d", kind, run.Total.Cycles))
		}
		sort.Strings(cells)
		key := fmt.Sprintf("%s %s sf%g %s cycles", data, fig.CPU.Name, fig.NominalSF, id)
		ok = b.check(key, strings.Join(cells, " ")) && ok
	}
	return ok
}
