package hef_test

import (
	"strings"
	"testing"

	"hef"
)

// The public API surface: build a template, optimize it, inspect the result
// — the quickstart flow, end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	fw, err := hef.New("silver", hef.WithTestElems(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	b := hef.NewTemplate("api", hef.U64)
	in := b.Stream("in", hef.ReadStream)
	out := b.Stream("out", hef.WriteStream)
	c := b.Const("c", 3)
	x := b.Load("x", in)
	y := b.Mul("y", x, c)
	z := b.Xor("z", y, x)
	b.Store(out, z)
	tmpl, err := b.Build(hef.KnownOp)
	if err != nil {
		t.Fatal(err)
	}

	opt, err := fw.OptimizeOperator(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Node.Valid() {
		t.Errorf("invalid optimal node %v", opt.Node)
	}
	if opt.SecondsPerElem() <= 0 {
		t.Error("optimum should have positive cost")
	}
	if !strings.Contains(opt.Source(), "void api(") {
		t.Errorf("generated source malformed:\n%s", opt.Source())
	}

	res, err := fw.Measure(tmpl, hef.Node{V: 1, S: 0, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.IPC() <= 0 {
		t.Errorf("Measure returned empty counters: %+v", res)
	}
}

func TestPublicAPITemplatesFile(t *testing.T) {
	f, err := hef.ParseTemplates(`
template t u64 (a:stream, b:wstream) {
    x = load(a);
    y = add(x, x);
    store(b, y);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.List) != 1 || f.List[0] != "t" {
		t.Errorf("List = %v", f.List)
	}
}

func TestPublicAPIConstantsAndHelpers(t *testing.T) {
	if hef.SearchSpaceSize(2, 3, 4) != 22 {
		t.Error("SearchSpaceSize re-export broken")
	}
	if !hef.KnownOp("mul") || hef.KnownOp("frobnicate") {
		t.Error("KnownOp re-export broken")
	}
	if hef.AVX2 == hef.AVX512 {
		t.Error("width constants must differ")
	}
	if hef.Version == "" {
		t.Error("Version must be set")
	}
	if _, err := hef.New("epyc"); err == nil {
		t.Error("unknown CPU must be rejected")
	}
}

// The ISA-portability path of Section III-B: the same template optimizes on
// the ARM Neoverse model at Neon width, where gather has no vector form.
func TestPublicAPIOtherISAs(t *testing.T) {
	for _, cpu := range []string{"neoverse", "zen"} {
		fw, err := hef.New(cpu, hef.WithTestElems(1<<11))
		if err != nil {
			t.Fatal(err)
		}
		b := hef.NewTemplate("port", hef.U64)
		in := b.Stream("in", hef.ReadStream)
		out := b.Stream("out", hef.WriteStream)
		c := b.Const("c", 17)
		x := b.Load("x", in)
		y := b.Mul("y", x, c)
		b.Store(out, y)
		tmpl, err := b.Build(hef.KnownOp)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := fw.OptimizeOperator(tmpl)
		if err != nil {
			t.Fatalf("%s: %v", cpu, err)
		}
		if !opt.Node.Valid() {
			t.Errorf("%s: invalid node %v", cpu, opt.Node)
		}
	}
}
