package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"hef/internal/engine"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// TestReusedSimulatorMatchesFresh is the naive reference for stage
// measurements: every distinct stage plan of a small figure (silver, SF10,
// sample 0.005, all four engines), plus evaluator-protocol plans so the
// settling run and warmed-image restores are covered, measured on one
// reused simulator — in forward order and then again in reverse — must
// equal the same plan measured on a fresh simulator of its own. RunFigure's
// workers, TimeQuery and SimEvaluator rely on this to reuse one simulator
// for every measurement they make. TestFrameworkReuseMatchesFresh
// (internal/core) extends it to whole searches on the simulators one
// core.Framework lends across operators and concurrent calls.
func TestReusedSimulatorMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-sized measurement sweep is slow")
	}
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	data := ssb.Generate(0.005, 20230401)
	var plans []memo.Plan
	var names []string
	seen := map[memo.Key]bool{}
	for _, id := range []string{"Q1.1", "Q2.1", "Q3.3", "Q4.1"} {
		q, err := queries.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := queries.Execute(q, data, engine.Scalar)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range AllEngines {
			qp, err := planQuery(cpu, q, fres.Stats, 10, kind)
			if err != nil {
				t.Fatal(err)
			}
			for i, pl := range qp.plans {
				if pl == nil || seen[pl.key] {
					continue
				}
				seen[pl.key] = true
				plans = append(plans, pl.Plan)
				names = append(names, id+"/"+kind.String()+"/"+qp.stages[i].Name)
			}
		}
	}
	for i, pl := range plans {
		if len(pl.Warm) > 0 {
			ev := pl
			ev.Proto = memo.ProtoEvaluator
			plans = append(plans, ev)
			names = append(names, names[i]+" (evaluator protocol)")
			break
		}
	}
	if len(plans) < 10 || plans[len(plans)-1].Proto != memo.ProtoEvaluator {
		t.Fatalf("expected a figure's worth of stage plans plus an evaluator plan, got %d", len(plans))
	}
	// Evaluator-protocol probe plans at several nodes, adjacent and with
	// equal warm ranges (as a search's evaluations have): on the reused
	// simulator all but the first of them restore the warmed image instead
	// of re-walking the hash table.
	probe := engine.ProbeTemplate(1 << 20)
	for _, n := range []translator.Node{{V: 1, S: 1, P: 3}, {V: 0, S: 1, P: 1}, {V: 1, S: 0, P: 2}, {V: 2, S: 1, P: 1}} {
		out, err := translator.Translate(probe, n, translator.Options{CPU: cpu})
		if err != nil {
			t.Fatalf("probe %v: %v", n, err)
		}
		pl := memo.Plan{Proto: memo.ProtoEvaluator, Prog: out.Program, Iters: 2048 / int64(out.ElemsPerIter)}
		for _, p := range probe.Params {
			if p.Pattern == hid.RandomRegion {
				pl.Warm = append(pl.Warm, memo.WarmRange{Base: translator.ParamBase(probe, p.Name), Region: p.Region})
			}
		}
		if len(pl.Warm) == 0 {
			t.Fatal("probe template warms nothing")
		}
		plans = append(plans, pl)
		names = append(names, fmt.Sprintf("probe %v (evaluator protocol)", n))
	}

	measure := func(sim *uarch.Sim, i int) *uarch.Result {
		t.Helper()
		res, err := plans[i].Measure(sim)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		return res
	}
	fresh := make([]*uarch.Result, len(plans))
	for i := range plans {
		fresh[i] = measure(uarch.NewSim(cpu), i)
	}
	reused := uarch.NewSim(cpu)
	check := func(order string, i int) {
		t.Helper()
		if got := measure(reused, i); !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s, %s: reused simulator measured %+v, fresh %+v", order, names[i], got, fresh[i])
		}
	}
	for i := range plans {
		check("forward", i)
	}
	for i := len(plans) - 1; i >= 0; i-- {
		check("reverse", i)
	}
}
