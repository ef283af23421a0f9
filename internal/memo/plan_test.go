package memo

import (
	"testing"

	"hef/internal/engine"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// probePlan plans the SSB hash probe at the hybrid node under proto, with
// its LLC-resident hash table warmed.
func probePlan(t *testing.T, cpu *isa.CPU, proto Protocol) Plan {
	t.Helper()
	tmpl := engine.ProbeTemplate(1 << 20)
	out, err := translator.Translate(tmpl, translator.Node{V: 1, S: 1, P: 3}, translator.Options{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	pl := Plan{Proto: proto, Prog: out.Program, Iters: 2048 / int64(out.ElemsPerIter)}
	for _, p := range tmpl.Params {
		if p.Pattern == hid.RandomRegion {
			pl.Warm = append(pl.Warm, WarmRange{Base: translator.ParamBase(tmpl, p.Name), Region: p.Region})
		}
	}
	if len(pl.Warm) == 0 {
		t.Fatal("probe template warms nothing")
	}
	return pl
}

// TestPlanKeyIsFingerprint: a plan keys exactly the fingerprint of its
// fields, so callers may switch between the two freely.
func TestPlanKeyIsFingerprint(t *testing.T) {
	cpu := isa.XeonSilver4110()
	pl := probePlan(t, cpu, ProtoEvaluator)
	p := &uarch.Perturb{Seed: 3, LatJitter: 0.1}
	if pl.Key(cpu, p) != Fingerprint(ProtoEvaluator, cpu, p, pl.Prog, pl.Iters, pl.Warm) {
		t.Fatal("Plan.Key differs from Fingerprint over the same inputs")
	}
}

// TestPlanMeasureAllocs: on a warm, reused simulator a measurement
// allocates only its Result and that Result's PortBusy under either
// protocol — nothing proportional to the cache geometry, which a fresh
// simulator per measurement would rebuild, and nothing for the warm: the
// repeated range list restores the hierarchy's warmed image.
func TestPlanMeasureAllocs(t *testing.T) {
	cpu := isa.XeonSilver4110()
	sim := uarch.NewSim(cpu)
	for _, proto := range []Protocol{ProtoStage, ProtoEvaluator} {
		pl := probePlan(t, cpu, proto)
		if _, err := pl.Measure(sim); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := pl.Measure(sim); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("protocol %d: Measure on a reused simulator allocates %.1f objects, want <= 2", proto, allocs)
		}
	}
}
