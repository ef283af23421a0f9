package hef

import (
	"testing"

	"hef/internal/hid"
	"hef/internal/hid/hidgen"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// linkKey is everything a link is keyed by: the evaluator's link prefix
// and the node.
type linkKey struct {
	prefix memo.Key
	node   Node
}

// linkedKeys remembers, across the inputs one fuzz worker runs, the
// measurement key every link key was linked to.
var linkedKeys = map[linkKey]memo.Key{}

// FuzzTranslationKey checks the soundness of the memo's link index over
// generated templates (hidgen.Build, the FuzzBuilderBuild generator) at
// fuzzed nodes, machine models, widths, test sizes, table regions, and
// perturbations. Run must link each evaluation's link key — the prefix of
// a LinkKeyer on the evaluator's inputs, and the node — to exactly
// Fingerprint(Translate(...)) of the template the evaluator was built on —
// the key a link-free evaluation would look up — and no two inputs sharing
// a link key may fingerprint apart; Evaluate's cost, read from the linked
// entry in place, must have the bits of the cost of Run's copy. One
// evaluator runs a node, a second node on the same inputs (the same
// prefix), and the second node again after a SetPerturb change (the prefix
// must re-hash) and a SetRegion edit of the caller's template, which must
// not reach the evaluator's snapshot. A new evaluator on the edited template
// links to the edited template's translation, and keeps doing so after a
// direct in-place write to a body operand's Value; only a third evaluator
// sees that write.
func FuzzTranslationKey(f *testing.F) {
	// load, mul(c, v0), gather(tab, v1), store; load, load, select, store;
	// load, srl, store — each translatable, so the seeds reach the check.
	f.Add([]byte{0x00, 0x6b, 0x24}, "nm", uint64(3), uint8(1), uint8(1), uint8(2), uint8(0), uint32(0), uint16(1024))
	f.Add([]byte{0x00, 0x00, 0x22}, "g", uint64(7), uint8(0), uint8(2), uint8(1), uint8(5), uint32(1<<20), uint16(64))
	f.Add([]byte{0x00, 0x30}, "op", uint64(1<<40), uint8(3), uint8(0), uint8(0), uint8(26), uint32(1<<26), uint16(0))
	knownOps := func(op string) bool { _, err := isa.Describe(op); return err == nil }
	cpus := []string{"silver", "gold", "neoverse", "zen"}
	widths := []isa.Width{0, isa.W512, isa.W256, isa.W128}
	f.Fuzz(func(t *testing.T, prog []byte, name string, c uint64, v, s, p, variant uint8, region uint32, elems uint16) {
		tmpl, err := hidgen.Build(prog, name, c, knownOps)
		if err != nil {
			return
		}
		if region > 0 {
			if err := tmpl.SetRegion("tab", uint64(region)); err != nil {
				t.Fatal(err)
			}
		}
		cpu, err := isa.ByName(cpus[variant%4])
		if err != nil {
			t.Fatal(err)
		}
		var perturb *uarch.Perturb
		if variant&16 != 0 {
			perturb = &uarch.Perturb{Seed: c, LatJitter: 0.1}
		}
		built := tmpl.Clone()
		ev := NewSimEvaluator(cpu, tmpl, widths[variant/4%4], int64(elems))
		ev.SetPerturb(perturb)
		cache := memo.NewCache()
		ev.SetMemo(cache)

		// check seeds the measurement of node on want, the template ev was
		// built on, under ev's other inputs, so Run hits on it without
		// simulating and records the link under test, then requires the
		// link and the Result to be that measurement's. It reports false
		// when the node does not translate.
		check := func(step string, ev *SimEvaluator, want *hid.Template, node Node) bool {
			out, err := translator.Translate(want, node, translator.Options{Width: ev.width, CPU: cpu})
			if err != nil {
				return false
			}
			pl := memo.NewPlan(memo.ProtoEvaluator, cpu, want, out, ev.elems)
			mk := memo.Fingerprint(memo.ProtoEvaluator, cpu, ev.perturb, out.Program, pl.Iters, pl.Warm)
			cache.Put(mk, &uarch.Result{Name: step, Cycles: uint64(len(linkedKeys)) + 1, Elems: 3, FreqGHz: 2.1})
			res, err := ev.Run(node)
			if err != nil {
				t.Fatalf("%s: Run(%v): %v", step, node, err)
			}
			if res.Name != step {
				t.Fatalf("%s: %s@%v: Run returned the measurement seeded by %q", step, want.Name, node, res.Name)
			}
			if sec, err := ev.Evaluate(node); err != nil || sec != res.Seconds()/float64(res.Elems) {
				t.Fatalf("%s: %s@%v: Evaluate = %v (err %v), Run's cost %v", step, want.Name, node, sec, err, res.Seconds()/float64(res.Elems))
			}
			tk := linkKey{memo.NewLinkKeyer(memo.ProtoEvaluator, cpu, ev.perturb).Prefix(want, ev.width, ev.elems), node}
			if r, ok := cache.GetLinked(tk.prefix, tk.node); !ok || r.Name != step {
				t.Fatalf("%s: %s@%v: link key not linked to Fingerprint(Translate(...))", step, want.Name, node)
			}
			if prev, ok := linkedKeys[tk]; ok && prev != mk {
				t.Fatalf("%s: %s@%v: one link key, two measurement keys", step, want.Name, node)
			}
			linkedKeys[tk] = mk
			return true
		}
		node := Node{V: int(v % 4), S: int(s % 4), P: int(p%4) + 1}
		swapped := Node{V: node.S, S: node.V, P: int(p/4%4) + 1}
		if !check("first", ev, built, node) || !check("same prefix", ev, built, swapped) {
			return
		}
		if perturb == nil {
			ev.SetPerturb(&uarch.Perturb{Seed: c + 1, OccJitter: 0.2})
		} else {
			ev.SetPerturb(nil)
		}
		if err := tmpl.SetRegion("tab", uint64(region)<<1|1<<16); err != nil {
			t.Fatal(err)
		}
		if !check("perturbed, caller's template edited", ev, built, swapped) {
			return
		}
		edited := tmpl.Clone()
		next := NewSimEvaluator(cpu, tmpl, ev.width, ev.elems)
		next.SetPerturb(ev.perturb)
		next.SetMemo(cache)
		if !check("new evaluator", next, edited, swapped) {
			return
		}
		for i := range tmpl.Body {
			if args := tmpl.Body[i].Args; len(args) > 0 {
				args[len(args)-1].Value++
				break
			}
		}
		if !check("operand written", next, edited, swapped) {
			return
		}
		last := NewSimEvaluator(cpu, tmpl, ev.width, ev.elems)
		last.SetPerturb(ev.perturb)
		last.SetMemo(cache)
		check("evaluator after the operand write", last, tmpl.Clone(), swapped)
	})
}
