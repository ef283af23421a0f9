package memo

import (
	"testing"

	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// linkTmpl is a small probe-shaped template exercising every part of the
// translation key: a constant, a random region, an accumulator, and a body
// with variable, constant and immediate operands.
func linkTmpl() *hid.Template {
	return &hid.Template{
		Name: "t",
		Elem: hid.U64,
		Params: []hid.Param{
			{Name: "in", Pattern: hid.ReadStream},
			{Name: "tab", Pattern: hid.RandomRegion, Region: 1 << 20},
			{Name: "out", Pattern: hid.WriteStream},
		},
		Consts: map[string]uint64{"m": 0xc6a4a7935bd1e995, "z": 3},
		Accs:   []string{"acc"},
		Body: []hid.Stmt{
			{Dst: "x", Op: "load", Args: []hid.Operand{hid.ParamOp("in")}},
			{Dst: "k", Op: "mul", Args: []hid.Operand{hid.Var("x"), hid.ConstOp("m")}},
			{Dst: "h", Op: "srl", Args: []hid.Operand{hid.Var("k"), hid.Imm(7)}},
			{Dst: "g", Op: "gather", Args: []hid.Operand{hid.ParamOp("tab"), hid.Var("h")}},
			{Dst: "acc", Op: "add", Args: []hid.Operand{hid.Var("acc"), hid.Var("g")}},
			{Op: "store", Args: []hid.Operand{hid.ParamOp("out"), hid.Var("acc")}},
		},
	}
}

var linkNode = translator.Node{V: 1, S: 1, P: 2}

// linkKey is everything a link is keyed by: the prefix of the inputs one
// evaluator fixes, and the node.
type linkKey struct {
	prefix Key
	node   translator.Node
}

// keyLink keys the link of one evaluation with a keyer of its own.
func keyLink(proto Protocol, cpu *isa.CPU, p *uarch.Perturb, tmpl *hid.Template, node translator.Node, width isa.Width, elems int64) linkKey {
	return linkKey{NewLinkKeyer(proto, cpu, p).Prefix(tmpl, width, elems), node}
}

// editedLink keys linkNode on silver at 1,024 elements of linkTmpl after
// edit.
func editedLink(edit func(tmpl *hid.Template)) linkKey {
	tmpl := linkTmpl()
	if edit != nil {
		edit(tmpl)
	}
	return keyLink(ProtoEvaluator, isa.XeonSilver4110(), nil, tmpl, linkNode, isa.W512, 1024)
}

// TestTranslationKeySeparates changes one translation input at a time;
// every change must move the link key — the prefix, or for a node the
// node — or a link would serve one input's measurement to another.
func TestTranslationKeySeparates(t *testing.T) {
	base := editedLink(nil)
	if editedLink(nil) != base {
		t.Fatal("identical inputs produced different link keys")
	}
	cpu := isa.XeonSilver4110()
	// A zero-rate perturbation is the identity, exactly as in Fingerprint.
	if keyLink(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 42}, linkTmpl(), linkNode, isa.W512, 1024) != base {
		t.Error("zero-rate perturbation keys differently from nil")
	}
	fewerRegs := isa.XeonSilver4110()
	fewerRegs.GPRegs--
	smallerLLC := isa.XeonSilver4110()
	smallerLLC.LLC.SizeBytes /= 2
	cases := map[string]linkKey{
		"const value":  editedLink(func(t *hid.Template) { t.Consts["m"]++ }),
		"const name":   editedLink(func(t *hid.Template) { t.Consts["y"] = t.Consts["z"]; delete(t.Consts, "z") }),
		"body op":      editedLink(func(t *hid.Template) { t.Body[1].Op = "xor" }),
		"body operand": editedLink(func(t *hid.Template) { t.Body[2].Args[1] = hid.Imm(8) }),
		"body dst":     editedLink(func(t *hid.Template) { t.Body[0].Dst = "y"; t.Body[1].Args[0] = hid.Var("y") }),
		"region":       editedLink(func(t *hid.Template) { t.Params[1].Region = 1 << 21 }),
		"pattern":      editedLink(func(t *hid.Template) { t.Params[0].Pattern = hid.RandomRegion }),
		"param name":   editedLink(func(t *hid.Template) { t.Params[2].Name = "o"; t.Body[5].Args[0] = hid.ParamOp("o") }),
		"name":         editedLink(func(t *hid.Template) { t.Name = "u" }),
		"elem type":    editedLink(func(t *hid.Template) { t.Elem = hid.I64 }),
		"accumulator":  editedLink(func(t *hid.Template) { t.Accs = nil }),
		"node v":       keyLink(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 2, S: 1, P: 2}, isa.W512, 1024),
		"node s":       keyLink(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 1, S: 2, P: 2}, isa.W512, 1024),
		"node p":       keyLink(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 1, S: 1, P: 3}, isa.W512, 1024),
		"width":        keyLink(ProtoEvaluator, cpu, nil, linkTmpl(), linkNode, isa.W256, 1024),
		"elems":        keyLink(ProtoEvaluator, cpu, nil, linkTmpl(), linkNode, isa.W512, 2048),
		"perturb seed": keyLink(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.1}, linkTmpl(), linkNode, isa.W512, 1024),
		"perturb rate": keyLink(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.2}, linkTmpl(), linkNode, isa.W512, 1024),
		"protocol":     keyLink(ProtoStage, cpu, nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu model":    keyLink(ProtoEvaluator, isa.XeonGold6240R(), nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu GPRegs":   keyLink(ProtoEvaluator, fewerRegs, nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu LLC size": keyLink(ProtoEvaluator, smallerLLC, nil, linkTmpl(), linkNode, isa.W512, 1024),
	}
	seen := map[linkKey]string{base: "base"}
	for label, k := range cases {
		if prev, dup := seen[k]; dup {
			t.Errorf("%q keys identically to %q", label, prev)
		}
		seen[k] = label
	}
	// Only the node varies within a prefix, so everything else must move
	// the prefix itself.
	prefixes := map[Key]string{base.prefix: "base"}
	for label, k := range cases {
		if k.node != base.node {
			continue
		}
		if prev, dup := prefixes[k.prefix]; dup {
			t.Errorf("%q has the prefix of %q", label, prev)
		}
		prefixes[k.prefix] = label
	}
}

// TestLinkIndex: a linked lookup counts one hit; GetLinked returns a
// private copy, and LinkedSeconds reads the stored entry without
// allocating. An unlinked lookup counts nothing. Links are not entries:
// they neither fire the persistence hook nor show up in Range or Stats.
func TestLinkIndex(t *testing.T) {
	c := NewCache()
	var puts int
	c.OnPut(func(Key, *uarch.Result) { puts++ })
	tk, mk := editedLink(nil), baseKey()

	if _, ok := c.GetLinked(tk.prefix, tk.node); ok {
		t.Fatal("unlinked key hit")
	}
	c.Link(tk.prefix, tk.node, mk) // linked, but the measurement is absent
	if _, ok := c.GetLinked(tk.prefix, tk.node); ok {
		t.Fatal("link to an absent measurement hit")
	}
	if _, _, ok := c.LinkedSeconds(tk.prefix, tk.node); ok {
		t.Fatal("link to an absent measurement hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("failed linked lookups counted: %+v", st)
	}

	stored := &uarch.Result{Name: "r", Cycles: 100, Elems: 8, FreqGHz: 2, PortBusy: []uint64{1}}
	c.Put(mk, stored)
	got, ok := c.GetLinked(tk.prefix, tk.node)
	if !ok || got.Cycles != 100 {
		t.Fatalf("linked lookup = %+v, %v", got, ok)
	}
	got.PortBusy[0] = 999
	if again, _ := c.GetLinked(tk.prefix, tk.node); again.PortBusy[0] != 1 {
		t.Fatal("GetLinked did not deep-copy")
	}
	if sec, elems, ok := c.LinkedSeconds(tk.prefix, tk.node); !ok || sec != stored.Seconds() || elems != stored.Elems {
		t.Fatalf("LinkedSeconds = %v, %d, %v, want %v, %d", sec, elems, ok, stored.Seconds(), stored.Elems)
	}
	if other := (translator.Node{V: 2, S: 1, P: 2}); func() bool { _, _, ok := c.LinkedSeconds(tk.prefix, other); return ok }() {
		t.Fatal("a node without a link hit through its prefix's table")
	}
	if st := c.Stats(); st != (Stats{Hits: 3, Entries: 1}) {
		t.Fatalf("stats = %+v, want 3 hits / 0 misses / 1 entry", st)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.LinkedSeconds(tk.prefix, tk.node) }); allocs != 0 {
		t.Errorf("LinkedSeconds allocates %.1f times per call, want 0", allocs)
	}
	n := 0
	c.Range(func(Key, *uarch.Result) { n++ })
	if n != 1 || puts != 1 {
		t.Fatalf("range saw %d entries and the hook fired %d times, want 1 and 1", n, puts)
	}

	var nilCache *Cache
	nilCache.Link(tk.prefix, tk.node, mk)
	if _, ok := nilCache.GetLinked(tk.prefix, tk.node); ok {
		t.Fatal("nil cache hit")
	}
	if _, _, ok := nilCache.LinkedSeconds(tk.prefix, tk.node); ok {
		t.Fatal("nil cache hit")
	}
}

// TestTranslationKeyerMatches walks a LinkKeyer through changes of every
// kind of input and requires its prefix to equal that of a keyer built on
// the current inputs after every step. A change of the template — edited
// in place or replaced — the width or the test size reuses the keyer's
// hashed machine part and moves the prefix. A change of a keyer's own
// inputs — the perturbation, the machine model, edited in place or
// replaced, the protocol — leaves the old keyer keying as before, since it
// keeps no reference to them, and a new keyer matches the changed inputs.
func TestTranslationKeyerMatches(t *testing.T) {
	tmpl, other := linkTmpl(), hashes.MurmurTemplate()
	silver, fewerRegs := isa.XeonSilver4110(), isa.XeonSilver4110()
	fewerRegs.GPRegs -= 4
	type call struct {
		proto   Protocol
		cpu     *isa.CPU
		perturb *uarch.Perturb
		tmpl    *hid.Template
		width   isa.Width
		elems   int64
	}
	c := call{ProtoEvaluator, silver, nil, tmpl, isa.W512, 1024}
	fresh := func() Key { return NewLinkKeyer(c.proto, c.cpu, c.perturb).Prefix(c.tmpl, c.width, c.elems) }
	k := NewLinkKeyer(c.proto, c.cpu, c.perturb)
	held := k.Prefix(c.tmpl, c.width, c.elems)
	step := func(label string, edit func()) {
		t.Helper()
		edit()
		want := fresh()
		if want == held {
			t.Fatalf("%s: the prefix did not move", label)
		}
		if got := k.Prefix(c.tmpl, c.width, c.elems); got != want {
			t.Fatalf("%s: keyer %x, a new keyer %x", label, got, want)
		}
		held = want
	}
	machine := func(label string, edit func()) {
		t.Helper()
		step(label+" (new keyer)", func() {
			edit()
			if got := k.Prefix(c.tmpl, c.width, c.elems); got != held {
				t.Fatalf("%s: the old keyer followed the change", label)
			}
			k = NewLinkKeyer(c.proto, c.cpu, c.perturb)
		})
	}
	if got := k.Prefix(c.tmpl, c.width, c.elems); got != held {
		t.Fatal("the same inputs keyed twice differ")
	}
	step("width", func() { c.width = isa.W256 })
	step("elems", func() { c.elems = 4096 })
	step("SetRegion", func() {
		if err := tmpl.SetRegion("tab", 1<<24); err != nil {
			t.Fatal(err)
		}
	})
	machine("perturbation set", func() { c.perturb = &uarch.Perturb{Seed: 3, LatJitter: 0.1} })
	machine("perturbation seed", func() { c.perturb = &uarch.Perturb{Seed: 4, LatJitter: 0.1} })
	machine("perturbation removed", func() { c.perturb = nil })
	machine("fewer registers", func() { c.cpu = fewerRegs })
	machine("registers edited in place", func() { fewerRegs.GPRegs -= 4 })
	machine("protocol", func() { c.proto = ProtoStage })
	step("other template", func() { c.tmpl = other })
	step("template back", func() { c.tmpl = tmpl })
	step("constant added", func() { tmpl.Consts["y"] = 9 })
	step("constant renamed", func() { tmpl.Consts["w"] = tmpl.Consts["y"]; delete(tmpl.Consts, "y") })
	step("operand written", func() { tmpl.Body[2].Args[1].Value++ })
}

// BenchmarkTranslationKeyer keys the prefix of a murmur search on silver:
// "machine" with one LinkKeyer, as a core.Framework does for every
// evaluator it builds, "oneshot" with a new keyer each time, which encodes
// and hashes the machine model too. A node costs no key at all: it is a
// map key within its prefix's link table.
func BenchmarkTranslationKeyer(b *testing.B) {
	tmpl, cpu := hashes.MurmurTemplate(), isa.XeonSilver4110()
	b.Run("machine", func(b *testing.B) {
		b.ReportAllocs()
		k := NewLinkKeyer(ProtoEvaluator, cpu, nil)
		for i := 0; i < b.N; i++ {
			k.Prefix(tmpl, isa.W512, 1<<14)
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewLinkKeyer(ProtoEvaluator, cpu, nil).Prefix(tmpl, isa.W512, 1<<14)
		}
	})
}
