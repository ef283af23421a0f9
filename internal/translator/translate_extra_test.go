package translator

import (
	"strings"
	"testing"

	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/uarch"
)

func knownOps(op string) bool {
	_, err := isa.Describe(op)
	return err == nil
}

// accumulator template: sum += load(in) per element.
func sumTemplate(t *testing.T) *hid.Template {
	t.Helper()
	b := hid.NewTemplate("sum", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	acc := b.Acc("acc")
	x := b.Load("x", in)
	b.Op("acc", "add", acc, x)
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// Each instance of an accumulator gets its own register, carried across
// iterations — the simulator must see a per-instance serial chain, not a
// fresh value per iteration.
func TestAccumulatorTranslation(t *testing.T) {
	tmpl := sumTemplate(t)
	out := MustTranslate(tmpl, Node{V: 0, S: 2, P: 2}, Options{})
	// 4 accumulator instances expected; the adds write them.
	writers := map[int16]int{}
	for _, u := range out.Program.Body {
		if u.Instr.Name == "add" && u.Dst != uarch.NoReg {
			writers[u.Dst]++
		}
	}
	// 4 instance adds plus the loop counter add.
	if len(writers) != 5 {
		t.Errorf("expected 5 distinct add destinations (4 accumulators + loop), got %d", len(writers))
	}

	// The chain must serialize per instance: with 4 instances and a 1-cycle
	// add, ~1 cycle per 4 elements plus load throughput.
	cpu := isa.XeonSilver4110()
	res := mustRun(t, uarch.NewSim(cpu), out.Program, 4000)
	if cpi := float64(res.Cycles) / 4000; cpi > 4 {
		t.Errorf("accumulator loop %.2f cycles/iter, expected pipelined (<4)", cpi)
	}
}

// The same accumulator at (0,1,1) is a serial 1-cycle add chain: exactly
// ~1 cycle per element.
func TestAccumulatorSerialChain(t *testing.T) {
	tmpl := sumTemplate(t)
	out := MustTranslate(tmpl, Node{V: 0, S: 1, P: 1}, Options{})
	cpu := isa.XeonSilver4110()
	res := mustRun(t, uarch.NewSim(cpu), out.Program, 4000)
	cpi := float64(res.Cycles) / 4000
	if cpi < 0.9 || cpi > 1.5 {
		t.Errorf("serial accumulator: %.2f cycles/iter, want ~1 (add latency)", cpi)
	}
}

// Gather instances must draw from distinct address streams (different
// packs/instances probe different buckets), while a prefetch covering a
// gather shares its stream exactly.
func TestGatherSeedsDistinct(t *testing.T) {
	b := hid.NewTemplate("g2", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	tab := b.Table("tab", 1<<20)
	x := b.Load("x", in)
	g1 := b.Gather("g1", tab, x)
	g2 := b.Gather("g2", tab, g1)
	b.Store(hid.ParamOp("in"), g2) // structurally fine for this test
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	out := MustTranslate(tmpl, Node{V: 1, S: 0, P: 2}, Options{})
	seeds := map[uint64]bool{}
	for _, u := range out.Program.Body {
		if u.Instr.Class == isa.GatherOp {
			if seeds[u.Addr.Seed] {
				t.Fatalf("duplicate gather seed %#x", u.Addr.Seed)
			}
			seeds[u.Addr.Seed] = true
		}
	}
	if len(seeds) != 4 { // 2 statements x 2 packs
		t.Errorf("expected 4 distinct gather seeds, got %d", len(seeds))
	}
}

func TestPrefetchMatchesGatherAddresses(t *testing.T) {
	b := hid.NewTemplate("pfg", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	out := b.Stream("out", hid.WriteStream)
	tab := b.Table("tab", 1<<20)
	x := b.Load("x", in)
	b.Op("pf", "prefetch", hid.ParamOp("tab"))
	g := b.Gather("g", tab, x)
	b.Store(out, g)
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	o := MustTranslate(tmpl, Node{V: 1, S: 0, P: 1}, Options{})
	var pf []uarch.AddrSpec
	var gather *uarch.AddrSpec
	for i := range o.Program.Body {
		u := &o.Program.Body[i]
		switch u.Instr.Class {
		case isa.Prefetch:
			if u.Addr.Kind == uarch.AddrRandom {
				pf = append(pf, u.Addr)
			}
		case isa.GatherOp:
			gather = &u.Addr
		}
	}
	if gather == nil || len(pf) != 8 {
		t.Fatalf("want 8 lane prefetches and a gather, got %d and %v", len(pf), gather)
	}
	for _, p := range pf {
		if p.Seed != gather.Seed || p.Region != gather.Region || p.Base != gather.Base {
			t.Errorf("prefetch stream %+v does not match gather %+v", p, *gather)
		}
	}
	lanes := map[uint8]bool{}
	for _, p := range pf {
		lanes[p.LaneSel] = true
	}
	if len(lanes) != 8 {
		t.Errorf("prefetches must cover all 8 lanes, got %d", len(lanes))
	}
}

// Spilled programs still validate and run.
func TestSpilledProgramRuns(t *testing.T) {
	tmpl := mustMurmur(t)
	out := MustTranslate(tmpl, Node{V: 2, S: 4, P: 8}, Options{})
	if out.SpillStores == 0 {
		t.Fatal("expected spills at v=2 s=4 p=8")
	}
	res := mustRun(t, uarch.NewSim(isa.XeonSilver4110()), out.Program, 50)
	if res.Instructions == 0 {
		t.Error("spilled program produced no instructions")
	}
	// Spill code must appear in the instruction stream as stack traffic.
	spillOps := 0
	for _, u := range out.Program.Body {
		if u.Addr.Kind == uarch.AddrStack {
			spillOps++
		}
	}
	if spillOps != out.SpillStores+out.SpillLoads {
		t.Errorf("stack ops %d != reported spills %d", spillOps, out.SpillStores+out.SpillLoads)
	}
}

func mustMurmur(t *testing.T) *hid.Template {
	t.Helper()
	b := hid.NewTemplate("m", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	out := b.Stream("out", hid.WriteStream)
	c := b.Const("c", 0xc6a4a7935bd1e995)
	x := b.Load("x", in)
	var cur hid.Operand = x
	for i := 0; i < 6; i++ {
		m := b.Mul("m"+string(rune('0'+i)), cur, c)
		s := b.Srl("s"+string(rune('0'+i)), m, 29)
		cur = b.Xor("x"+string(rune('0'+i)), m, s)
	}
	b.Store(out, cur)
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// Scatter stores to random regions must carry random address specs.
func TestScatterStore(t *testing.T) {
	b := hid.NewTemplate("scatter", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	grp := b.Table("grp", 8192)
	x := b.Load("x", in)
	b.Store(grp, x)
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	out := MustTranslate(tmpl, Node{V: 1, S: 1, P: 1}, Options{})
	found := false
	for _, u := range out.Program.Body {
		if u.Instr.Class == isa.Store && u.Addr.Kind == uarch.AddrRandom {
			found = true
			if u.Addr.Region != 8192 {
				t.Errorf("scatter region = %d", u.Addr.Region)
			}
		}
	}
	if !found {
		t.Error("store to a random region should scatter")
	}
}

func TestParamBase(t *testing.T) {
	tmpl := mustMurmur(t)
	if ParamBase(tmpl, "in") != 1<<32 || ParamBase(tmpl, "out") != 2<<32 {
		t.Error("ParamBase should assign sequential 4GB windows")
	}
	if ParamBase(tmpl, "nope") != 0 {
		t.Error("unknown parameter should map to 0")
	}
}

// Scalar source rendering covers select and gather forms.
func TestSourceRenderingScalarForms(t *testing.T) {
	b := hid.NewTemplate("sel", hid.U64)
	in := b.Stream("in", hid.ReadStream)
	out := b.Stream("out", hid.WriteStream)
	tab := b.Table("tab", 2048)
	c := b.Const("c", 7)
	x := b.Load("x", in)
	m := b.CmpGt("m", x, c)
	g := b.Gather("g", tab, x)
	r := b.Select("r", m, g, x)
	b.Store(out, r)
	tmpl, err := b.Build(knownOps)
	if err != nil {
		t.Fatal(err)
	}
	src := MustTranslate(tmpl, Node{V: 1, S: 1, P: 1}, Options{}).Source()
	for _, want := range []string{
		"g_s0_p0 = *(tab + x_s0_p0);",
		"r_s0_p0 = m_s0_p0 ? g_s0_p0 : x_s0_p0;",
		"_mm512_i64gather_epi64",
		"_mm512_mask_blend_epi64",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q\n%s", want, src)
		}
	}
}
