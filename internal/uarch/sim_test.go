package uarch

import (
	"strings"
	"testing"
	"time"

	"hef/internal/isa"
)

// chainProg builds a loop body that is one long dependent chain: r0 = op(r0, r1).
func chainProg(name string, in *isa.Instr, n int) *Program {
	body := make([]UOp, n)
	for i := range body {
		body[i] = UOp{Instr: in, Dst: 0, Srcs: [3]int16{0, 1, NoReg}}
	}
	return &Program{Name: name, Body: body, NumRegs: 2, ElemsPerIter: n}
}

// indepProg builds a loop body of n independent ops r_i = op(r_inv, r_inv2).
func indepProg(name string, in *isa.Instr, n int) *Program {
	body := make([]UOp, n)
	for i := range body {
		body[i] = UOp{Instr: in, Dst: int16(2 + i), Srcs: [3]int16{0, 1, NoReg}}
	}
	return &Program{Name: name, Body: body, NumRegs: 2 + n, ElemsPerIter: n}
}

func cyclesPerIter(t *testing.T, cpu *isa.CPU, p *Program, iters int64) float64 {
	t.Helper()
	s := NewSim(cpu)
	res, err := s.Run(p, iters)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name, err)
	}
	return float64(res.Cycles) / float64(iters)
}

func TestDependentAddChainIsLatencyBound(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// Each iteration has 4 adds all chained through r0: 4 cycles/iter.
	got := cyclesPerIter(t, cpu, chainProg("chain-add", isa.MustScalar("add"), 4), 2000)
	if got < 3.9 || got > 4.6 {
		t.Errorf("dependent add chain: got %.2f cycles/iter, want ~4", got)
	}
}

func TestIndependentAddsAreThroughputBound(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// 8 independent adds per iteration, 4 scalar ALU ports, decode width 5:
	// the front-end is the limit (8 uops / 5 per cycle = 1.6 cycles/iter).
	got := cyclesPerIter(t, cpu, indepProg("indep-add", isa.MustScalar("add"), 8), 2000)
	if got < 1.5 || got > 2.2 {
		t.Errorf("independent adds: got %.2f cycles/iter, want ~1.6", got)
	}
}

func TestScalarMulSinglePipe(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// 4 independent imuls per iteration on a single multiply pipe: 4 cycles.
	got := cyclesPerIter(t, cpu, indepProg("indep-mul", isa.MustScalar("imul"), 4), 2000)
	if got < 3.8 || got > 4.6 {
		t.Errorf("independent imuls: got %.2f cycles/iter, want ~4", got)
	}
}

func TestDependentMulChainLatencyBound(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// Chain of 4 imuls at latency 3: 12 cycles/iter.
	got := cyclesPerIter(t, cpu, chainProg("chain-mul", isa.MustScalar("imul"), 4), 2000)
	if got < 11.5 || got > 13.0 {
		t.Errorf("dependent imul chain: got %.2f cycles/iter, want ~12", got)
	}
}

func TestVecMulOccupancySilverVsGold(t *testing.T) {
	p := func() *Program {
		pr := indepProg("indep-vpmullq", isa.MustAVX512("vpmullq"), 4)
		pr.VectorStatements = 1
		pr.VectorWidth = isa.W512
		return pr
	}
	// Silver: one fused 512-bit unit, occupancy 3 => 12 cycles/iter.
	silver := cyclesPerIter(t, isa.XeonSilver4110(), p(), 2000)
	if silver < 11.5 || silver > 13.0 {
		t.Errorf("silver vpmullq: got %.2f cycles/iter, want ~12", silver)
	}
	// Gold: two 512-bit units => ~6 cycles/iter.
	gold := cyclesPerIter(t, isa.XeonGold6240R(), p(), 2000)
	if gold < 5.5 || gold > 7.0 {
		t.Errorf("gold vpmullq: got %.2f cycles/iter, want ~6", gold)
	}
}

func TestFused512BlocksSharedScalarPorts(t *testing.T) {
	cpu := isa.XeonSilver4110()
	// One 512-bit ALU op + four scalar adds per iteration: the 512-bit op
	// occupies p0 (the fused unit's anchor), leaving p1/p5/p6 for scalar.
	body := []UOp{
		{Instr: isa.MustAVX512("vpaddq"), Dst: 2, Srcs: [3]int16{0, 1, NoReg}},
		{Instr: isa.MustScalar("add"), Dst: 3, Srcs: [3]int16{0, 1, NoReg}},
		{Instr: isa.MustScalar("add"), Dst: 4, Srcs: [3]int16{0, 1, NoReg}},
		{Instr: isa.MustScalar("add"), Dst: 5, Srcs: [3]int16{0, 1, NoReg}},
		{Instr: isa.MustScalar("add"), Dst: 6, Srcs: [3]int16{0, 1, NoReg}},
	}
	p := &Program{Name: "fused-512", Body: body, NumRegs: 7, ElemsPerIter: 12,
		VectorStatements: 1, VectorWidth: isa.W512}
	got := cyclesPerIter(t, cpu, p, 2000)
	// 5 uops at decode 5 and: cycle A has vec on p0+p1 plus 2 adds on p5/p6,
	// 2 adds left over => slightly above 1 cycle/iter.
	if got < 1.0 || got > 2.0 {
		t.Errorf("fused 512 + scalar mix: got %.2f cycles/iter, want in [1,2]", got)
	}
}

func TestGatherDependentVsIndependent(t *testing.T) {
	cpu := isa.XeonSilver4110()
	g := isa.MustAVX512("vpgatherqq")
	small := uint64(2048) // an L1-resident lookup table, like CRC64's

	dep := &Program{Name: "gather-dep", NumRegs: 2, ElemsPerIter: 8 * 4,
		VectorStatements: 1, VectorWidth: isa.W512}
	for i := 0; i < 4; i++ {
		dep.Body = append(dep.Body, UOp{Instr: g, Dst: 0, Srcs: [3]int16{0, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: small, Seed: uint64(i)}})
	}
	indep := &Program{Name: "gather-indep", NumRegs: 5, ElemsPerIter: 8 * 4,
		VectorStatements: 1, VectorWidth: isa.W512}
	for i := 0; i < 4; i++ {
		indep.Body = append(indep.Body, UOp{Instr: g, Dst: int16(1 + i), Srcs: [3]int16{0, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: small, Seed: uint64(i)}})
	}
	cDep := cyclesPerIter(t, cpu, dep, 500)
	cIndep := cyclesPerIter(t, cpu, indep, 500)
	// Dependent gathers pay the 26-cycle latency each; independent gathers
	// stream at the 5-cycle reciprocal throughput.
	if cDep < 3*cIndep {
		t.Errorf("dependent gathers (%.1f c/iter) should be >=3x slower than independent (%.1f c/iter)", cDep, cIndep)
	}
	if cIndep < 14 || cIndep > 26 {
		t.Errorf("independent gathers: got %.1f cycles/iter, want ~16 (4 gathers x 4c)", cIndep)
	}
}

func TestCacheRegionAffectsLoadCost(t *testing.T) {
	cpu := isa.XeonSilver4110()
	mk := func(region uint64) *Program {
		return &Program{
			Name: "load-region", NumRegs: 2, ElemsPerIter: 1,
			Body: []UOp{{Instr: isa.MustScalar("movq"), Dst: 0, Srcs: [3]int16{1, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 31, Region: region, Seed: 7}}},
		}
	}
	smallC := cyclesPerIter(t, isa.XeonSilver4110(), mk(16<<10), 20000)
	largeC := cyclesPerIter(t, cpu, mk(256<<20), 20000)
	if largeC < 2*smallC {
		t.Errorf("random loads over 256MB (%.2f c/iter) should be much slower than over 16KB (%.2f c/iter)", largeC, smallC)
	}
}

func TestHistogramAccountsForAllCycles(t *testing.T) {
	cpu := isa.XeonSilver4110()
	s := NewSim(cpu)
	p := indepProg("hist", isa.MustScalar("add"), 6)
	res, err := s.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, h := range res.Hist {
		sum += h
	}
	if sum != res.Cycles {
		t.Errorf("histogram sums to %d cycles, want %d", sum, res.Cycles)
	}
	if res.Instructions != 6000 {
		t.Errorf("retired %d instructions, want 6000", res.Instructions)
	}
}

func TestRunValidates(t *testing.T) {
	s := NewSim(isa.XeonSilver4110())
	if _, err := s.Run(&Program{Name: "empty", ElemsPerIter: 1}, 10); err == nil {
		t.Error("empty program should fail validation")
	}
	bad := &Program{Name: "bad-reg", ElemsPerIter: 1, NumRegs: 1,
		Body: []UOp{{Instr: isa.MustScalar("add"), Dst: 5, Srcs: [3]int16{NoReg, NoReg, NoReg}}}}
	if _, err := s.Run(bad, 10); err == nil {
		t.Error("out-of-range register should fail validation")
	}
	memless := &Program{Name: "memless", ElemsPerIter: 1, NumRegs: 1,
		Body: []UOp{{Instr: isa.MustScalar("movq"), Dst: 0, Srcs: [3]int16{NoReg, NoReg, NoReg}}}}
	if _, err := s.Run(memless, 10); err == nil {
		t.Error("memory op without AddrSpec should fail validation")
	}
	good := indepProg("good", isa.MustScalar("add"), 1)
	if _, err := s.Run(good, 0); err == nil {
		t.Error("zero iterations should be rejected")
	}
}

// TestNeverIssuableProgramFails: a program holding a µop that no state of
// the machine lets issue — no port for it, or more of a queue than exists —
// must be refused, on every Run, instead of retrying that µop forever. Each
// case runs under a deadline, so a regression fails instead of hanging.
func TestNeverIssuableProgramFails(t *testing.T) {
	gather := &Program{Name: "gather", NumRegs: 2, ElemsPerIter: 8, Body: []UOp{
		{Instr: isa.MustAVX512("vpgatherqq"), Dst: 1, Srcs: [3]int16{0, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: 1 << 16, Seed: 1}}}}
	smallLQ := isa.XeonSilver4110()
	smallLQ.LoadQueue = 3
	noLoadPort := isa.XeonSilver4110()
	noMul := isa.XeonSilver4110()
	for i := range noLoadPort.Ports {
		noLoadPort.Ports[i].Accepts[isa.Load] = false
		noMul.Ports[i].Accepts[isa.IntMul] = false
	}
	cases := []struct {
		name string
		cpu  *isa.CPU
		prog *Program
		want string
	}{
		{"512-bit add on zen", isa.AMDZen2(), indepProg("v", isa.MustAVX512("vpaddq"), 4), "has no 512-bit unit"},
		{"512-bit multiply on neoverse", isa.NeoverseN1(), indepProg("v", isa.MustAVX512("vpmullq"), 2), "has no 512-bit unit"},
		{"gather wider than the load queue", smallLQ, gather, "4 load-queue entries"},
		{"gather without a load port", noLoadPort, gather, "no port accepts class Gather"},
		{"multiply without a multiply port", noMul, indepProg("m", isa.MustScalar("imul"), 2), "no port accepts class IntMul"},
	}
	for _, c := range cases {
		done := make(chan [2]error, 1)
		go func() {
			s := NewSim(c.cpu)
			var errs [2]error
			for i := range errs {
				_, errs[i] = s.Run(c.prog, 10)
			}
			done <- errs
		}()
		select {
		case errs := <-done:
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: run %d returned %v, want an error containing %q", c.name, i+1, err, c.want)
				}
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Run still running after 20s", c.name)
		}
	}
	// A 512-bit shuffle runs on the shuffle unit, which zen has.
	if _, err := NewSim(isa.AMDZen2()).Run(indepProg("shuf", isa.MustAVX512("vpbroadcastq"), 2), 10); err != nil {
		t.Errorf("512-bit shuffle on zen: %v", err)
	}
}

// TestNeverDispatchableFails: an instruction with more µops than the ROB
// holds, or a model with no scheduler entries or no decode slots, could
// never dispatch, so nothing would ever retire. Run must return an error,
// on every call, instead of stepping forever. Each case runs under a
// deadline, so a regression fails instead of hanging.
func TestNeverDispatchableFails(t *testing.T) {
	gather := &Program{Name: "gather", NumRegs: 2, ElemsPerIter: 8, Body: []UOp{
		{Instr: isa.MustAVX512("vpgatherqq"), Dst: 1, Srcs: [3]int16{0, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: 1 << 16, Seed: 1}}}}
	smallROB := isa.XeonSilver4110()
	smallROB.ROBSize = 8
	noRS := isa.XeonSilver4110()
	noRS.RSSize = 0
	noDecode := isa.XeonSilver4110()
	noDecode.DecodeWidth = 0
	cases := []struct {
		name string
		cpu  *isa.CPU
		prog *Program
		want string
	}{
		{"gather wider than the ROB", smallROB, gather, "exceed the 8-entry ROB"},
		{"no scheduler entries", noRS, indepProg("a", isa.MustScalar("add"), 2), "0 scheduler entries"},
		{"no decode slots", noDecode, indepProg("a", isa.MustScalar("add"), 2), "decodes 0 µops per cycle"},
	}
	for _, c := range cases {
		done := make(chan [2]error, 1)
		go func() {
			s := NewSim(c.cpu)
			var errs [2]error
			for i := range errs {
				_, errs[i] = s.Run(c.prog, 10)
			}
			done <- errs
		}()
		select {
		case errs := <-done:
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: run %d returned %v, want an error containing %q", c.name, i+1, err, c.want)
				}
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Run still running after 20s", c.name)
		}
	}
}

func TestFrequencyLicense(t *testing.T) {
	silver := isa.XeonSilver4110()
	gold := isa.XeonGold6240R()

	scalarProg := indepProg("s", isa.MustScalar("add"), 4)
	res := mustRun(t, NewSim(silver), scalarProg, 100)
	if res.FreqGHz != silver.Freq.ScalarGHz {
		t.Errorf("scalar-only freq = %.2f, want %.2f", res.FreqGHz, silver.Freq.ScalarGHz)
	}

	v1 := indepProg("v1", isa.MustAVX512("vpmullq"), 2)
	v1.VectorStatements = 1
	v1.VectorWidth = isa.W512
	res = mustRun(t, NewSim(silver), v1, 100)
	if res.FreqGHz != silver.Freq.AVX512GHz {
		t.Errorf("one 512-bit statement freq = %.2f, want %.2f", res.FreqGHz, silver.Freq.AVX512GHz)
	}

	// Two 512-bit statements only downclock parts with two 512-bit units.
	v2 := indepProg("v2", isa.MustAVX512("vpmullq"), 2)
	v2.VectorStatements = 2
	v2.VectorWidth = isa.W512
	res = mustRun(t, NewSim(silver), v2, 100)
	if res.FreqGHz != silver.Freq.AVX512GHz {
		t.Errorf("silver v=2 freq = %.2f, want %.2f (only one 512 unit)", res.FreqGHz, silver.Freq.AVX512GHz)
	}
	res = mustRun(t, NewSim(gold), v2, 100)
	if res.FreqGHz != gold.Freq.AVX512HeavyGHz {
		t.Errorf("gold v=2 freq = %.2f, want heavy license %.2f", res.FreqGHz, gold.Freq.AVX512HeavyGHz)
	}
}
