package uarch

import (
	"testing"

	"hef/internal/isa"
)

// BenchmarkSimulatorThroughput measures simulated instructions per second —
// the cost of the timing substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cpu := isa.XeonSilver4110()
	p := indepProg("bench", isa.MustScalar("add"), 8)
	s := NewSim(cpu)
	const iters = 4096
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(&res, p, iters); err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// TestRunIntoAllocs pins the allocation hygiene of the hot loop: once a Sim
// and Result have been through one warm-up Run, steady-state RunInto calls
// must not allocate at all.
func TestRunIntoAllocs(t *testing.T) {
	cpu := isa.XeonSilver4110()
	progs := []*Program{
		indepProg("alloc-add", isa.MustScalar("add"), 8),
		stackSpillProg("alloc-spill", 4),
	}
	for _, p := range progs {
		s := NewSim(cpu)
		var res Result
		if err := s.RunInto(&res, p, 1024); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if err := s.RunInto(&res, p, 1024); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Errorf("%s: RunInto allocates %.1f objects per call after warm-up, want 0", p.Name, avg)
		}
	}
}

// BenchmarkSimulatorGatherHeavy measures the same rate on two random
// 512-bit gathers per iteration: every lane is a demand access, and the
// slow path runs every cycle.
func BenchmarkSimulatorGatherHeavy(b *testing.B) {
	cpu := isa.XeonSilver4110()
	g := isa.MustAVX512("vpgatherqq")
	p := &Program{Name: "gb", NumRegs: 3, ElemsPerIter: 16,
		VectorStatements: 1, VectorWidth: isa.W512,
		Body: []UOp{
			{Instr: g, Dst: 1, Srcs: [3]int16{0, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 33, Region: 1 << 22, Seed: 1}},
			{Instr: g, Dst: 2, Srcs: [3]int16{0, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 34, Region: 1 << 22, Seed: 2}},
		}}
	s := NewSim(cpu)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(&res, p, 2048); err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
