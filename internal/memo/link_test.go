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

func linkKey(edit func(tmpl *hid.Template)) Key {
	tmpl := linkTmpl()
	if edit != nil {
		edit(tmpl)
	}
	return TranslationKey(ProtoEvaluator, isa.XeonSilver4110(), nil, tmpl, linkNode, isa.W512, 1024)
}

// TestTranslationKeySeparates changes one translation input at a time;
// every change must move the key, or a link would serve one input's
// measurement to another.
func TestTranslationKeySeparates(t *testing.T) {
	base := linkKey(nil)
	if linkKey(nil) != base {
		t.Fatal("identical inputs produced different translation keys")
	}
	cpu := isa.XeonSilver4110()
	// A zero-rate perturbation is the identity, exactly as in Fingerprint.
	if TranslationKey(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 42}, linkTmpl(), linkNode, isa.W512, 1024) != base {
		t.Error("zero-rate perturbation keys differently from nil")
	}
	fewerRegs := isa.XeonSilver4110()
	fewerRegs.GPRegs--
	smallerLLC := isa.XeonSilver4110()
	smallerLLC.LLC.SizeBytes /= 2
	cases := map[string]Key{
		"const value":  linkKey(func(t *hid.Template) { t.Consts["m"]++ }),
		"const name":   linkKey(func(t *hid.Template) { t.Consts["y"] = t.Consts["z"]; delete(t.Consts, "z") }),
		"body op":      linkKey(func(t *hid.Template) { t.Body[1].Op = "xor" }),
		"body operand": linkKey(func(t *hid.Template) { t.Body[2].Args[1] = hid.Imm(8) }),
		"body dst":     linkKey(func(t *hid.Template) { t.Body[0].Dst = "y"; t.Body[1].Args[0] = hid.Var("y") }),
		"region":       linkKey(func(t *hid.Template) { t.Params[1].Region = 1 << 21 }),
		"pattern":      linkKey(func(t *hid.Template) { t.Params[0].Pattern = hid.RandomRegion }),
		"param name":   linkKey(func(t *hid.Template) { t.Params[2].Name = "o"; t.Body[5].Args[0] = hid.ParamOp("o") }),
		"name":         linkKey(func(t *hid.Template) { t.Name = "u" }),
		"elem type":    linkKey(func(t *hid.Template) { t.Elem = hid.I64 }),
		"accumulator":  linkKey(func(t *hid.Template) { t.Accs = nil }),
		"node v":       TranslationKey(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 2, S: 1, P: 2}, isa.W512, 1024),
		"node s":       TranslationKey(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 1, S: 2, P: 2}, isa.W512, 1024),
		"node p":       TranslationKey(ProtoEvaluator, cpu, nil, linkTmpl(), translator.Node{V: 1, S: 1, P: 3}, isa.W512, 1024),
		"width":        TranslationKey(ProtoEvaluator, cpu, nil, linkTmpl(), linkNode, isa.W256, 1024),
		"elems":        TranslationKey(ProtoEvaluator, cpu, nil, linkTmpl(), linkNode, isa.W512, 2048),
		"perturb seed": TranslationKey(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.1}, linkTmpl(), linkNode, isa.W512, 1024),
		"perturb rate": TranslationKey(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.2}, linkTmpl(), linkNode, isa.W512, 1024),
		"protocol":     TranslationKey(ProtoStage, cpu, nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu model":    TranslationKey(ProtoEvaluator, isa.XeonGold6240R(), nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu GPRegs":   TranslationKey(ProtoEvaluator, fewerRegs, nil, linkTmpl(), linkNode, isa.W512, 1024),
		"cpu LLC size": TranslationKey(ProtoEvaluator, smallerLLC, nil, linkTmpl(), linkNode, isa.W512, 1024),
	}
	seen := map[Key]string{base: "base"}
	for label, k := range cases {
		if prev, dup := seen[k]; dup {
			t.Errorf("%q keys identically to %q", label, prev)
		}
		seen[k] = label
	}
}

// TestLinkIndex: a linked lookup counts one hit and returns a private copy;
// an unlinked one counts nothing. Links are not entries: they neither fire
// the persistence hook nor show up in Range or Stats.
func TestLinkIndex(t *testing.T) {
	c := NewCache()
	var puts int
	c.OnPut(func(Key, *uarch.Result) { puts++ })
	tk, mk := linkKey(nil), baseKey()

	if _, ok := c.GetLinked(tk); ok {
		t.Fatal("unlinked translation key hit")
	}
	c.Link(tk, mk) // linked, but the measurement is absent
	if _, ok := c.GetLinked(tk); ok {
		t.Fatal("link to an absent measurement hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("failed linked lookups counted: %+v", st)
	}

	c.Put(mk, &uarch.Result{Name: "r", Cycles: 100, PortBusy: []uint64{1}})
	got, ok := c.GetLinked(tk)
	if !ok || got.Cycles != 100 {
		t.Fatalf("linked lookup = %+v, %v", got, ok)
	}
	got.PortBusy[0] = 999
	if again, _ := c.GetLinked(tk); again.PortBusy[0] != 1 {
		t.Fatal("GetLinked did not deep-copy")
	}
	if st := c.Stats(); st != (Stats{Hits: 2, Entries: 1}) {
		t.Fatalf("stats = %+v, want 2 hits / 0 misses / 1 entry", st)
	}
	n := 0
	c.Range(func(Key, *uarch.Result) { n++ })
	if n != 1 || puts != 1 {
		t.Fatalf("range saw %d entries and the hook fired %d times, want 1 and 1", n, puts)
	}

	var nilCache *Cache
	nilCache.Link(tk, mk)
	if _, ok := nilCache.GetLinked(tk); ok {
		t.Fatal("nil cache hit")
	}
}

// TestTranslationKeyerMatches walks keyers through changes of every kind
// of input and requires a keyer, and a fork of it, to equal the one-shot
// TranslationKey after every step. A change of the node, width or test size
// reuses the keyer's hashed prefix. A change behind the prefix — the
// template, edited in place or replaced, the perturbation, the machine
// model, the protocol — leaves the old keyer keying as before, since it
// keeps no reference to its inputs, and a new keyer matches the changed
// inputs. A keyed call on an unchanged prefix allocates nothing.
func TestTranslationKeyerMatches(t *testing.T) {
	tmpl, other := linkTmpl(), hashes.MurmurTemplate()
	silver := isa.XeonSilver4110()
	fewerRegs := isa.XeonSilver4110()
	fewerRegs.GPRegs -= 4
	type call struct {
		proto   Protocol
		cpu     *isa.CPU
		perturb *uarch.Perturb
		tmpl    *hid.Template
		node    translator.Node
		width   isa.Width
		elems   int64
	}
	c := call{ProtoEvaluator, silver, nil, tmpl, linkNode, isa.W512, 1024}
	oneShot := func() Key { return TranslationKey(c.proto, c.cpu, c.perturb, c.tmpl, c.node, c.width, c.elems) }
	k := NewTranslationKeyer(c.proto, c.cpu, c.perturb, c.tmpl)
	fork := k.Fork()
	step := func(label string, edit func()) {
		t.Helper()
		edit()
		want := oneShot()
		if got := k.Key(c.node, c.width, c.elems); got != want {
			t.Fatalf("%s: keyer %x, TranslationKey %x", label, got, want)
		}
		if got := fork.Key(c.node, c.width, c.elems); got != want {
			t.Fatalf("%s: fork %x, TranslationKey %x", label, got, want)
		}
	}
	prefix := func(label string, edit func()) {
		t.Helper()
		before := oneShot()
		step(label+" (new keyer)", func() {
			edit()
			if got := k.Key(c.node, c.width, c.elems); got != before {
				t.Fatalf("%s: the old keyer followed the change", label)
			}
			k = NewTranslationKeyer(c.proto, c.cpu, c.perturb, c.tmpl)
			fork = k.Fork()
		})
	}
	step("first call", func() {})
	step("same inputs", func() {})
	step("node", func() { c.node = translator.Node{V: 2, S: 0, P: 4} })
	step("width", func() { c.width = isa.W256 })
	step("elems", func() { c.elems = 4096 })
	prefix("SetRegion", func() {
		if err := tmpl.SetRegion("tab", 1<<24); err != nil {
			t.Fatal(err)
		}
	})
	prefix("perturbation set", func() { c.perturb = &uarch.Perturb{Seed: 3, LatJitter: 0.1} })
	prefix("perturbation seed", func() { c.perturb = &uarch.Perturb{Seed: 4, LatJitter: 0.1} })
	prefix("perturbation removed", func() { c.perturb = nil })
	prefix("fewer registers", func() { c.cpu = fewerRegs })
	prefix("protocol", func() { c.proto = ProtoStage })
	prefix("other template", func() { c.tmpl = other })
	step("other template, node", func() { c.node = linkNode })
	prefix("template back", func() { c.tmpl = tmpl })
	prefix("constant added", func() { tmpl.Consts["y"] = 9 })
	prefix("constant renamed", func() { tmpl.Consts["w"] = tmpl.Consts["y"]; delete(tmpl.Consts, "y") })
	prefix("operand written", func() { tmpl.Body[2].Args[1].Value++ })

	nodes := []translator.Node{{V: 1, S: 0, P: 1}, {V: 0, S: 1, P: 1}, {V: 2, S: 3, P: 4}}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		k.Key(nodes[i%len(nodes)], c.width, c.elems)
		fork.Key(nodes[i%len(nodes)], c.width, c.elems)
		i++
	}); allocs != 0 {
		t.Errorf("keyer calls on an unchanged prefix allocate %.1f times, want 0", allocs)
	}
}

// BenchmarkTranslationKeyer keys the nodes of a murmur search on silver:
// "keyer" with one TranslationKeyer, as an evaluator does, "oneshot" with
// TranslationKey, which encodes and hashes the whole prefix every call.
func BenchmarkTranslationKeyer(b *testing.B) {
	tmpl, cpu := hashes.MurmurTemplate(), isa.XeonSilver4110()
	node := func(i int) translator.Node { return translator.Node{V: i % 4, S: i / 4 % 4, P: i%8 + 1} }
	b.Run("keyer", func(b *testing.B) {
		b.ReportAllocs()
		k := NewTranslationKeyer(ProtoEvaluator, cpu, nil, tmpl)
		for i := 0; i < b.N; i++ {
			k.Key(node(i), isa.W512, 1<<14)
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TranslationKey(ProtoEvaluator, cpu, nil, tmpl, node(i), isa.W512, 1<<14)
		}
	})
}
