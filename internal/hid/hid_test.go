package hid

import (
	"strings"
	"testing"
)

func anyOp(string) bool { return true }

func realOps(op string) bool {
	switch op {
	case "load", "store", "gather", "add", "sub", "mul", "and", "or", "xor",
		"srl", "sll", "cmpeq", "cmpgt", "cmplt", "select", "broadcast", "prefetch":
		return true
	}
	return false
}

func buildSample(t *testing.T) *Template {
	t.Helper()
	b := NewTemplate("sample", U64)
	val := b.Stream("val", ReadStream)
	out := b.Stream("out", WriteStream)
	m := b.Const("m", 42)
	d := b.Load("d", val)
	x := b.Mul("x", d, m)
	y := b.Srl("y", x, 3)
	z := b.Xor("z", x, y)
	b.Store(out, z)
	tmpl, err := b.Build(realOps)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestBuilderProducesValidTemplate(t *testing.T) {
	tmpl := buildSample(t)
	if len(tmpl.Body) != 5 {
		t.Errorf("body has %d statements, want 5", len(tmpl.Body))
	}
	if tmpl.Elem != U64 {
		t.Errorf("elem = %v, want u64", tmpl.Elem)
	}
}

func TestValidateUseBeforeDef(t *testing.T) {
	tmpl := &Template{Name: "bad", Elem: U64,
		Params: []Param{{Name: "v", Pattern: ReadStream}},
		Body:   []Stmt{{Dst: "x", Op: "add", Args: []Operand{Var("y"), Var("y")}}}}
	if err := tmpl.Validate(anyOp); err == nil {
		t.Error("use-before-def should fail validation")
	}
}

func TestValidateAccumulatorMayReadBeforeWrite(t *testing.T) {
	tmpl := &Template{Name: "acc", Elem: U64,
		Params: []Param{{Name: "v", Pattern: ReadStream}},
		Accs:   []string{"sum"},
		Body: []Stmt{
			{Dst: "d", Op: "load", Args: []Operand{ParamOp("v")}},
			{Dst: "sum", Op: "add", Args: []Operand{Var("sum"), Var("d")}},
		}}
	if err := tmpl.Validate(anyOp); err != nil {
		t.Errorf("accumulator pattern should validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		tmpl *Template
	}{
		{"empty body", &Template{Name: "t", Elem: U64}},
		{"no name", &Template{Elem: U64, Body: []Stmt{{Dst: "x", Op: "add"}}}},
		{"unknown param", &Template{Name: "t", Elem: U64,
			Body: []Stmt{{Dst: "x", Op: "load", Args: []Operand{ParamOp("nope")}}}}},
		{"unknown const", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "v", Pattern: ReadStream}},
			Body:   []Stmt{{Dst: "x", Op: "add", Args: []Operand{ConstOp("c"), ConstOp("c")}}}}},
		{"store with dst", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "v", Pattern: WriteStream}},
			Body: []Stmt{
				{Dst: "d", Op: "load", Args: []Operand{ParamOp("v")}},
				{Dst: "x", Op: "store", Args: []Operand{ParamOp("v"), Var("d")}},
			}}},
		{"load without param", &Template{Name: "t", Elem: U64,
			Body: []Stmt{{Dst: "x", Op: "load", Args: []Operand{Imm(1)}}}}},
		{"gather without index", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "tab", Pattern: RandomRegion, Region: 1 << 16}},
			Body:   []Stmt{{Dst: "x", Op: "gather", Args: []Operand{ParamOp("tab")}}}}},
		{"compute without dst", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "v", Pattern: ReadStream}},
			Body: []Stmt{
				{Dst: "d", Op: "load", Args: []Operand{ParamOp("v")}},
				{Op: "add", Args: []Operand{Var("d"), Var("d")}},
			}}},
		{"duplicate param", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "v", Pattern: ReadStream}, {Name: "v", Pattern: ReadStream}},
			Body:   []Stmt{{Dst: "d", Op: "load", Args: []Operand{ParamOp("v")}}}}},
		{"dst shadows param", &Template{Name: "t", Elem: U64,
			Params: []Param{{Name: "v", Pattern: ReadStream}},
			Body:   []Stmt{{Dst: "v", Op: "load", Args: []Operand{ParamOp("v")}}}}},
	}
	for _, c := range cases {
		if c.tmpl.Consts == nil {
			c.tmpl.Consts = map[string]uint64{}
		}
		if err := c.tmpl.Validate(anyOp); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateUnknownOp(t *testing.T) {
	tmpl := buildSample(t)
	if err := tmpl.Validate(func(op string) bool { return op != "mul" }); err == nil {
		t.Error("unknown op should fail validation")
	}
}

func TestSetRegion(t *testing.T) {
	b := NewTemplate("g", U64)
	b.Stream("val", ReadStream)
	tab := b.Table("tab", 1024)
	v := b.Load("v", ParamOp("val"))
	b.Gather("g", tab, v)
	b.Store(ParamOp("val"), Var("g")) // writes back for simplicity
	tmpl, err := b.Build(anyOp)
	if err == nil {
		// store to a ReadStream param is structurally fine in HID
		_ = tmpl
	} else {
		t.Fatal(err)
	}
	if err := tmpl.SetRegion("tab", 1<<20); err != nil {
		t.Fatal(err)
	}
	p, _ := tmpl.Param("tab")
	if p.Region != 1<<20 {
		t.Errorf("region = %d, want 1<<20", p.Region)
	}
	if err := tmpl.SetRegion("val", 1); err == nil {
		t.Error("SetRegion should reject non-random params")
	}
	if err := tmpl.SetRegion("nope", 1); err == nil {
		t.Error("SetRegion should reject unknown params")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tmpl := buildSample(t)
	c := tmpl.Clone()
	c.Consts["m"] = 7
	c.Params[0].Region = 99
	c.Body[0].Dst = "other"
	if tmpl.Consts["m"] == 7 || tmpl.Params[0].Region == 99 || tmpl.Body[0].Dst == "other" {
		t.Error("Clone should not share state with the original")
	}
	// The clone's statements share one operand array; an append to one
	// statement must not overwrite the next statement's operands.
	next := c.Body[2].Args[0]
	c.Body[1].Args = append(c.Body[1].Args, Imm(99))
	if c.Body[2].Args[0] != next {
		t.Errorf("appending to stmt 1's operands overwrote stmt 2's: %v", c.Body[2].Args)
	}
}

func TestTemplateString(t *testing.T) {
	s := buildSample(t).String()
	for _, want := range []string{"template sample(", "val:stream", "out:wstream",
		"const m = 0x2a;", "d = hi_load(val);", "x = hi_mul(d, m);", "hi_store(out, z);"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# MurmurHash-style kernel
template murmur u64 (val:stream, out:wstream, tab:random[2048]) {
    const m = 0xc6a4a7935bd1e995;
    acc h
    data = load(val);
    k  = mul(data, m);
    kr = srl(k, 47);
    k2 = xor(k, kr);
    h  = add(h, k2);
    g  = gather(tab, k2);
    x  = hi_xor(g, k2);   # hi_ prefix accepted
    store(out, x);
}
`
	f, err := Parse(src, realOps)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := f.Get("murmur")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Body) != 8 {
		t.Errorf("parsed %d statements, want 8", len(tmpl.Body))
	}
	if tmpl.Consts["m"] != 0xc6a4a7935bd1e995 {
		t.Errorf("const m = %#x", tmpl.Consts["m"])
	}
	if len(tmpl.Accs) != 1 || tmpl.Accs[0] != "h" {
		t.Errorf("accs = %v, want [h]", tmpl.Accs)
	}
	p, ok := tmpl.Param("tab")
	if !ok || p.Pattern != RandomRegion || p.Region != 2048 {
		t.Errorf("tab param = %+v", p)
	}
	if tmpl.Body[5].Op != "gather" || tmpl.Body[5].Args[0].Kind != ParamRef {
		t.Errorf("gather stmt parsed wrong: %+v", tmpl.Body[5])
	}
	if _, err := f.Get("nosuch"); err == nil {
		t.Error("Get should fail for unknown templates")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unclosed":        "template t u64 (v:stream) {\n x = load(v);\n",
		"nested":          "template a u64 (v:stream) {\ntemplate b u64 () {\n}\n}",
		"stray close":     "}\n",
		"stray stmt":      "x = load(v);\n",
		"bad header":      "template t u64 v:stream {\n}\n",
		"bad type":        "template t u128 (v:stream) {\n x = load(v);\n}",
		"bad pattern":     "template t u64 (v:zigzag) {\n x = load(v);\n}",
		"bad const":       "template t u64 (v:stream) {\n const m = xyz;\n x = load(v);\n}",
		"bad region":      "template t u64 (v:random[abc]) {\n x = load(v);\n}",
		"missing pattern": "template t u64 (v) {\n x = load(v);\n}",
		"malformed stmt":  "template t u64 (v:stream) {\n x = ;\n}",
		"empty file":      "# nothing here\n",
		"duplicate": `template t u64 (v:stream) {
 x = load(v);
}
template t u64 (v:stream) {
 x = load(v);
}`,
		"invalid body": "template t u64 (v:stream) {\n x = frob(v);\n}",
	}
	for name, src := range cases {
		if _, err := Parse(src, realOps); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestTypeProperties(t *testing.T) {
	bits := map[Type]int{I16: 16, U16: 16, I32: 32, U32: 32, I64: 64, U64: 64, F32: 32, F64: 64}
	for ty, want := range bits {
		if ty.Bits() != want {
			t.Errorf("%v.Bits() = %d, want %d", ty, ty.Bits(), want)
		}
		if ty.Bytes() != want/8 {
			t.Errorf("%v.Bytes() = %d, want %d", ty, ty.Bytes(), want/8)
		}
	}
	if U64.String() != "vuint64" || I32.String() != "vint32" {
		t.Errorf("type names: %v %v", U64.String(), I32.String())
	}
}

func TestOperandString(t *testing.T) {
	if Var("x").String() != "x" || Imm(7).String() != "7" || ConstOp("m").String() != "m" {
		t.Error("operand String() mismatch")
	}
	if ReadStream.String() != "stream" || WriteStream.String() != "wstream" || RandomRegion.String() != "random" {
		t.Error("MemPattern String() mismatch")
	}
	s := Stmt{Dst: "x", Op: "add", Args: []Operand{Var("a"), Var("b")}}
	if s.String() != "x = hi_add(a, b)" {
		t.Errorf("Stmt.String() = %q", s.String())
	}
}
