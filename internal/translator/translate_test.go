package translator

import (
	"strings"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/uarch"
)

func murmur() *hid.Template { return hashes.MurmurTemplate() }

func TestNodeValidity(t *testing.T) {
	valid := []Node{{1, 0, 1}, {0, 1, 1}, {1, 3, 2}, {8, 0, 1}, {0, 4, 8}}
	for _, n := range valid {
		if !n.Valid() {
			t.Errorf("%v should be valid", n)
		}
	}
	invalid := []Node{{0, 0, 1}, {1, 0, 0}, {-1, 1, 1}, {1, -1, 2}}
	for _, n := range invalid {
		if n.Valid() {
			t.Errorf("%v should be invalid", n)
		}
	}
	if _, err := Translate(murmur(), Node{0, 0, 3}, Options{}); err == nil {
		t.Error("Translate should reject invalid nodes")
	}
}

func TestElemsPerIter(t *testing.T) {
	cases := []struct {
		node Node
		want int
	}{
		{Node{1, 0, 1}, 8},  // pure SIMD
		{Node{0, 1, 1}, 1},  // pure scalar
		{Node{1, 3, 2}, 22}, // the paper's Silver murmur optimum
		{Node{2, 3, 2}, 38}, // Fig. 6(c)
		{Node{1, 1, 3}, 27}, // the paper's SSB optimum
	}
	for _, c := range cases {
		out, err := Translate(murmur(), c.node, Options{})
		if err != nil {
			t.Fatalf("Translate(%v): %v", c.node, err)
		}
		if out.ElemsPerIter != c.want {
			t.Errorf("%v: ElemsPerIter = %d, want %d", c.node, out.ElemsPerIter, c.want)
		}
		if out.Program.ElemsPerIter != c.want {
			t.Errorf("%v: Program.ElemsPerIter = %d, want %d", c.node, out.Program.ElemsPerIter, c.want)
		}
	}
}

func TestInstructionCountsScaleWithNode(t *testing.T) {
	// The murmur template has 13 statements. Each becomes p*(v+s) instances,
	// plus 3 loop-control instructions, assuming no spills.
	for _, n := range []Node{{1, 0, 1}, {0, 1, 1}, {1, 3, 2}, {1, 1, 3}} {
		out := MustTranslate(murmur(), n, Options{})
		if out.SpillStores != 0 || out.SpillLoads != 0 {
			t.Errorf("%v: unexpected spills (%d stores, %d loads)", n, out.SpillStores, out.SpillLoads)
		}
		want := 13*n.P*(n.V+n.S) + 3
		if got := len(out.Program.Body); got != want {
			t.Errorf("%v: %d instructions, want %d", n, got, want)
		}
	}
}

func TestLargePackSpills(t *testing.T) {
	// With enough instances live at once, the 32-register budgets must
	// overflow and spill code must appear (the post-optimum slowdown).
	out := MustTranslate(murmur(), Node{1, 3, 12}, Options{})
	if out.SpillStores == 0 && out.SpillLoads == 0 {
		t.Error("v=1 s=3 p=12 should exceed the scalar register budget and spill")
	}
	small := MustTranslate(murmur(), Node{1, 3, 2}, Options{})
	if small.SpillStores != 0 || small.SpillLoads != 0 {
		t.Errorf("v=1 s=3 p=2 should not spill, got %d stores %d loads", small.SpillStores, small.SpillLoads)
	}
}

func TestFig6SourceRendering(t *testing.T) {
	// Fig. 6(b): v=1, s=3, p=2. The generated source must contain the
	// instance naming and offsets shown in the paper.
	out := MustTranslate(murmur(), Node{1, 3, 2}, Options{})
	src := out.Source()
	for _, want := range []string{
		"data_v0_p0 = _mm512_loadu_epi64(val + ofs + 0);",
		"data_s0_p0 = *(val + ofs + 8);",
		"data_s1_p0 = *(val + ofs + 9);",
		"data_s2_p0 = *(val + ofs + 10);",
		"data_v0_p1 = _mm512_loadu_epi64(val + ofs + 11);",
		"data_s2_p1 = *(val + ofs + 21);",
		"_mm512_mullo_epi64(data_v0_p0, m_v)",
		"k1_s0_p0 = data_s0_p0 * m_s;",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q\n%s", want, src)
		}
	}

	// Fig. 6(c): v=2, s=3, p=2 shifts the second pack's offsets.
	out = MustTranslate(murmur(), Node{2, 3, 2}, Options{})
	for _, want := range []string{
		"data_v0_p0 = _mm512_loadu_epi64(val + ofs + 0);",
		"data_v1_p0 = _mm512_loadu_epi64(val + ofs + 8);",
		"data_s0_p0 = *(val + ofs + 16);",
		"data_v0_p1 = _mm512_loadu_epi64(val + ofs + 19);",
		"data_v1_p1 = _mm512_loadu_epi64(val + ofs + 27);",
	} {
		if !strings.Contains(out.Source(), want) {
			t.Errorf("source missing %q", want)
		}
	}
}

func TestPureScalarHasNoVectorInstructions(t *testing.T) {
	out := MustTranslate(murmur(), Node{0, 2, 2}, Options{})
	for _, u := range out.Program.Body {
		if u.Instr.Class.IsVector() || u.Instr.Width != isa.W64 {
			t.Fatalf("pure scalar program contains vector instruction %s", u.Instr.Name)
		}
	}
	if out.Program.VectorStatements != 0 {
		t.Errorf("VectorStatements = %d, want 0", out.Program.VectorStatements)
	}
}

func TestAVX2Width(t *testing.T) {
	out := MustTranslate(murmur(), Node{1, 0, 1}, Options{Width: isa.W256})
	if out.ElemsPerIter != 4 {
		t.Errorf("AVX2 lanes: ElemsPerIter = %d, want 4", out.ElemsPerIter)
	}
	sawYmm := false
	for _, u := range out.Program.Body {
		if u.Instr.Width == isa.W256 {
			sawYmm = true
		}
		if u.Instr.Width == isa.W512 {
			t.Fatalf("AVX2 program contains 512-bit instruction %s", u.Instr.Name)
		}
	}
	if !sawYmm {
		t.Error("AVX2 program contains no 256-bit instructions")
	}
	if _, err := Translate(murmur(), Node{1, 0, 1}, Options{Width: isa.W64}); err == nil {
		t.Error("W64 should be rejected as a SIMD width")
	}
}

func TestProgramsRunOnSimulator(t *testing.T) {
	cpu := isa.XeonSilver4110()
	for _, n := range []Node{{0, 1, 1}, {1, 0, 1}, {1, 3, 2}, {2, 2, 4}} {
		out := MustTranslate(murmur(), n, Options{CPU: cpu})
		sim := uarch.NewSim(cpu)
		res, err := sim.Run(out.Program, 200)
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Errorf("%v: empty result %+v", n, res)
		}
	}
}

// The paper's central claim, end to end: on the Silver 4110, the hybrid
// murmur implementation (1 SIMD + 3 scalar statements, pack 2) outperforms
// both the purely scalar and the purely SIMD implementations.
func TestHybridMurmurBeatsBothBaselines(t *testing.T) {
	cpu := isa.XeonSilver4110()
	run := func(n Node) float64 {
		out := MustTranslate(murmur(), n, Options{CPU: cpu})
		res := mustRun(t, uarch.NewSim(cpu), out.Program, 4000)
		return res.Seconds() / float64(res.Elems)
	}
	scalar := run(Node{0, 1, 1})
	simd := run(Node{1, 0, 1})
	hybrid := run(Node{1, 3, 2})
	if hybrid >= scalar {
		t.Errorf("hybrid (%.3g s/elem) should beat scalar (%.3g s/elem)", hybrid, scalar)
	}
	if hybrid >= simd {
		t.Errorf("hybrid (%.3g s/elem) should beat SIMD (%.3g s/elem)", hybrid, simd)
	}
}

// The pack optimisation on CRC64: packing independent gather chains converts
// the 26-cycle latency chain into 5-cycle-throughput streaming (Fig. 3).
func TestPackAcceleratesCRC64(t *testing.T) {
	cpu := isa.XeonSilver4110()
	tmpl := hashes.CRC64Template()
	run := func(n Node) float64 {
		out := MustTranslate(tmpl, n, Options{CPU: cpu})
		res := mustRun(t, uarch.NewSim(cpu), out.Program, 600)
		return res.Seconds() / float64(res.Elems)
	}
	unpacked := run(Node{1, 0, 1})
	packed := run(Node{1, 0, 8})
	if packed >= unpacked/1.5 {
		t.Errorf("packed CRC64 (%.3g s/elem) should be at least 1.5x faster than unpacked (%.3g s/elem)", packed, unpacked)
	}
}

func TestTranslateRejectsBadTemplate(t *testing.T) {
	b := hid.NewTemplate("bad", hid.U64)
	v := b.Stream("v", hid.ReadStream)
	b.Op("x", "nosuchop", v)
	tmpl := &hid.Template{Name: "bad", Elem: hid.U64,
		Params: []hid.Param{{Name: "v", Pattern: hid.ReadStream}},
		Consts: map[string]uint64{},
		Body:   []hid.Stmt{{Dst: "x", Op: "nosuchop", Args: []hid.Operand{hid.Var("y")}}}}
	_ = b
	if _, err := Translate(tmpl, Node{1, 0, 1}, Options{}); err == nil {
		t.Error("Translate should reject templates with unknown ops")
	}
	_ = v
}
