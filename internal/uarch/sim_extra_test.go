package uarch

import (
	"testing"

	"hef/internal/isa"
)

// Accumulator-style loop-carried dependences serialize across iterations.
func TestLoopCarriedAccumulator(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// r0 = r0 * r1 each iteration: a serial imul chain at latency 3.
	p := &Program{Name: "acc", NumRegs: 2, ElemsPerIter: 1,
		Body: []UOp{{Instr: isa.MustScalar("imul"), Dst: 0, Srcs: [3]int16{0, 1, NoReg}}}}
	res := mustRun(t, NewSim(cpu), p, 3000)
	cpi := float64(res.Cycles) / 3000
	if cpi < 2.8 || cpi > 3.4 {
		t.Errorf("carried imul chain: %.2f cycles/iter, want ~3 (latency-bound)", cpi)
	}
}

// Stack (spill) accesses stay L1-resident and cheap.
func TestStackAccessesAreCheap(t *testing.T) {
	cpu := isa.XeonSilver4110()
	p := &Program{Name: "spills", NumRegs: 2, ElemsPerIter: 1,
		Body: []UOp{
			{Instr: isa.MustScalar("movq.st"), Dst: NoReg, Srcs: [3]int16{1, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStack, Base: 1 << 40, Offset: 0}},
			{Instr: isa.MustScalar("movq"), Dst: 0, Srcs: [3]int16{NoReg, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStack, Base: 1 << 40, Offset: 0}},
		}}
	res := mustRun(t, NewSim(cpu), p, 4000)
	if got := res.Cache.LLCMisses; got > 2 {
		t.Errorf("stack traffic caused %d LLC misses, want ~0", got)
	}
	if cpi := float64(res.Cycles) / 4000; cpi > 3 {
		t.Errorf("stack store+load loop: %.2f cycles/iter, want cheap", cpi)
	}
}

func TestResultAddAndScale(t *testing.T) {
	a := &Result{Cycles: 100, Instructions: 50, Uops: 60, Elems: 10, FreqGHz: 2}
	a.Hist[0] = 40
	a.Hist[2] = 60
	b := &Result{Cycles: 100, Instructions: 30, Uops: 35, Elems: 10}
	b.Hist[1] = 100
	a.Add(b)
	if a.Cycles != 200 || a.Instructions != 80 || a.Uops != 95 || a.Elems != 20 {
		t.Errorf("Add: %+v", a)
	}
	if a.Hist[0] != 40 || a.Hist[1] != 100 || a.Hist[2] != 60 {
		t.Errorf("Add histogram: %v", a.Hist)
	}
	a.Scale(0.5)
	if a.Cycles != 100 || a.Instructions != 40 || a.Elems != 10 {
		t.Errorf("Scale: %+v", a)
	}
	if a.Hist[1] != 50 {
		t.Errorf("Scale histogram: %v", a.Hist)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{Cycles: 200, Instructions: 100, Elems: 50, FreqGHz: 2}
	if r.IPC() != 0.5 {
		t.Errorf("IPC = %f", r.IPC())
	}
	if got := r.Seconds(); got != 1e-7 {
		t.Errorf("Seconds = %g", got)
	}
	if r.CyclesPerElem() != 4 {
		t.Errorf("CyclesPerElem = %f", r.CyclesPerElem())
	}
	empty := &Result{}
	if empty.IPC() != 0 || empty.Seconds() != 0 || empty.CyclesPerElem() != 0 {
		t.Error("zero-value result should return zero metrics")
	}
}

func TestUopsPerIterHelpers(t *testing.T) {
	p := &Program{Name: "h", NumRegs: 1, ElemsPerIter: 8,
		Body: []UOp{
			{Instr: isa.MustAVX512("vpmullq"), Dst: 0, Srcs: [3]int16{NoReg, NoReg, NoReg}},
			{Instr: isa.MustAVX512("vpaddq"), Dst: 0, Srcs: [3]int16{NoReg, NoReg, NoReg}},
		}}
	if p.InstructionsPerIter() != 2 {
		t.Errorf("InstructionsPerIter = %d", p.InstructionsPerIter())
	}
	if p.UopsPerIter() != 4 { // vpmullq is 3 uops
		t.Errorf("UopsPerIter = %d", p.UopsPerIter())
	}
}

// The governor must floor at MinGHz and only trigger on prefetch density.
func TestEffectiveFreqGovernor(t *testing.T) {
	cpu := isa.XeonSilver4110()
	prog := &Program{VectorStatements: 0}
	res := &Result{Instructions: 100, Uops: 120, PrefetchUops: 90, Cycles: 100}
	f := EffectiveFreq(cpu, prog, res)
	if f != cpu.Freq.MinGHz {
		t.Errorf("saturated prefetch density should floor at MinGHz, got %.2f", f)
	}
	res.PrefetchUops = 0
	if f := EffectiveFreq(cpu, prog, res); f != cpu.Freq.ScalarGHz {
		t.Errorf("no prefetch: want scalar turbo, got %.2f", f)
	}
}

// AVX2-width programs run at the AVX2 license.
func TestEffectiveFreqAVX2(t *testing.T) {
	cpu := isa.XeonSilver4110()
	prog := &Program{VectorStatements: 1, VectorWidth: isa.W256}
	res := &Result{Instructions: 100, Cycles: 100}
	if f := EffectiveFreq(cpu, prog, res); f != cpu.Freq.AVX2GHz {
		t.Errorf("AVX2 license: got %.2f, want %.2f", f, cpu.Freq.AVX2GHz)
	}
}

// A 256-bit vector program issues on any vector-capable port, not just the
// 512-bit units: throughput should exceed the 512-bit single-unit case on
// the Silver model.
func TestAVX2UsesAllVectorPorts(t *testing.T) {
	cpu := isa.XeonSilver4110()
	mk := func(in *isa.Instr) *Program {
		body := make([]UOp, 6)
		for i := range body {
			body[i] = UOp{Instr: in, Dst: int16(1 + i), Srcs: [3]int16{0, 0, NoReg}}
		}
		return &Program{Name: in.Name, NumRegs: 7, ElemsPerIter: in.Lanes * 6,
			VectorStatements: 1, VectorWidth: in.Width, Body: body}
	}
	r256 := mustRun(t, NewSim(cpu), mk(isa.MustAVX2("vpaddq.y")), 3000)
	r512 := mustRun(t, NewSim(cpu), mk(isa.MustAVX512("vpaddq")), 3000)
	c256 := float64(r256.Cycles) / 3000
	c512 := float64(r512.Cycles) / 3000
	// 6 x 256-bit adds spread over p0/p1/p5 (~2 cycles); 6 x 512-bit adds
	// serialize on the single 512-bit unit (~6 cycles).
	if c256 >= c512 {
		t.Errorf("256-bit adds (%.1f c/iter) should beat 512-bit on one unit (%.1f c/iter)", c256, c512)
	}
}

// Address generation must be deterministic and in-region.
func TestAddrSpecProperties(t *testing.T) {
	spec := AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: 4096, Seed: 9}
	for iter := int64(0); iter < 100; iter++ {
		for lane := 0; lane < 8; lane++ {
			a1 := spec.address(iter, lane, 8)
			a2 := spec.address(iter, lane, 8)
			if a1 != a2 {
				t.Fatal("random addresses must be deterministic")
			}
			if a1 < spec.Base || a1 >= spec.Base+spec.Region {
				t.Fatalf("address %#x outside region", a1)
			}
		}
	}
	st := AddrSpec{Kind: AddrStride, Base: 0x1000, Stride: 8, Offset: 2}
	if got := st.address(3, 1, 10); got != 0x1000+(3*10+2+1)*8 {
		t.Errorf("stride address = %#x", got)
	}
	zero := AddrSpec{Kind: AddrRandom, Base: 5, Region: 0}
	if zero.address(1, 1, 1) != 5 {
		t.Error("zero region should return base")
	}
}

// Every built-in CPU model's ROB ring must fit the ROB-index field of a
// maturation key, and NewSim must refuse a model whose ring does not.
func TestReadyKeyFitsEveryROB(t *testing.T) {
	for _, name := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewSim(cpu).Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		last := int32(cpu.ROBSize + 8 - 1)
		if k := readyKey(1<<40, last); k>>robBits != 1<<40 || int32(k&robMask) != last {
			t.Errorf("%s: ROB index %d does not survive readyKey's %d-bit field", name, last, robBits)
		}
	}
	big := isa.XeonSilver4110()
	big.ROBSize = 1 << robBits
	if NewSim(big).Err() == nil {
		t.Errorf("NewSim accepted a ROB of %d µops, beyond readyKey's %d-bit field", big.ROBSize, robBits)
	}
}
