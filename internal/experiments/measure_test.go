package experiments

import (
	"reflect"
	"testing"

	"hef/internal/engine"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/uarch"
)

// TestReusedSimulatorMatchesFresh is the naive reference for stage
// measurements: every distinct stage plan of a small figure (silver, SF10,
// sample 0.005, all four engines), plus one evaluator-protocol plan so the
// settling run is covered, measured on one reused simulator — in forward
// order and then again in reverse — must equal the same plan measured on a
// fresh simulator of its own. RunFigure's workers and TimeQuery rely on
// this to reuse one simulator for every stage they measure.
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
