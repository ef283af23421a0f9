package uarch

import (
	"reflect"
	"testing"

	"hef/internal/isa"
	"hef/internal/telemetry"
)

// steadyCPUs is the four machine models the fast path must be bit-exact on.
func steadyCPUs(t *testing.T) []*isa.CPU {
	t.Helper()
	var cpus []*isa.CPU
	for _, name := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		cpus = append(cpus, cpu)
	}
	return cpus
}

// stackSpillProg mixes arithmetic with stack spill traffic: its replayed
// periods re-issue loads and stores to fixed spill slots.
func stackSpillProg(name string, n int) *Program {
	p := &Program{Name: name, NumRegs: int16Max(n+2, 4), ElemsPerIter: n}
	ld := isa.MustScalar("movq")
	st := isa.MustScalar("movq.st")
	add := isa.MustScalar("add")
	for i := 0; i < n; i++ {
		r := int16(i + 2)
		p.Body = append(p.Body,
			UOp{Instr: ld, Dst: r, Srcs: [3]int16{NoReg, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStack, Base: 1 << 20, Offset: uint64(i)}},
			UOp{Instr: add, Dst: r, Srcs: [3]int16{r, 0, NoReg}},
			UOp{Instr: st, Dst: NoReg, Srcs: [3]int16{r, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStack, Base: 1 << 20, Offset: uint64(i)}},
		)
	}
	return p
}

// hotProbeProg loads a single constant address (Region 0 degenerates to
// Base), the pattern of a hot single-entry lookup.
func hotProbeProg(name string) *Program {
	ld := isa.MustScalar("movq")
	add := isa.MustScalar("add")
	return &Program{Name: name, NumRegs: 4, ElemsPerIter: 1, Body: []UOp{
		{Instr: ld, Dst: 2, Srcs: [3]int16{NoReg, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: 0, Seed: 7}},
		{Instr: add, Dst: 3, Srcs: [3]int16{2, 0, NoReg}},
	}}
}

func int16Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fixedAddrProgs are programs whose addresses are iteration-invariant, so
// every recorded period's responses recur; the fast path must engage on them
// and stay bit-identical to the slow path.
// 512-bit vector programs are only runnable on CPUs with 512-bit units, so
// callers filter by model.
func fixedAddrProgs(cpu *isa.CPU) []*Program {
	progs := []*Program{
		indepProg("fp-indep-add", isa.MustScalar("add"), 8),
		chainProg("fp-chain-mul", isa.MustScalar("imul"), 4),
		stackSpillProg("fp-spill", 6),
		hotProbeProg("fp-hot-probe"),
	}
	if len(cpu.Vec512Ports) > 0 {
		progs = append(progs, indepProg("fp-vec", isa.MustAVX512("vpmullq"), 4))
	}
	return progs
}

// runBoth executes prog on fresh simulators with the fast path off and on
// and returns both results plus the fast simulator (for FastForwarded).
func runBoth(t *testing.T, cpu *isa.CPU, prog *Program, iters int64) (slow, fast *Result, fastSim *Sim) {
	t.Helper()
	ss := NewSim(cpu)
	ss.SetFastPath(false)
	slow, err := ss.Run(prog, iters)
	if err != nil {
		t.Fatalf("%s/%s slow: %v", cpu.Name, prog.Name, err)
	}
	fs := NewSim(cpu)
	fast, err = fs.Run(prog, iters)
	if err != nil {
		t.Fatalf("%s/%s fast: %v", cpu.Name, prog.Name, err)
	}
	return slow, fast, fs
}

// TestFastPathBitIdentical is the core differential: on every fixed-address
// program × CPU model the fast path must produce the identical Result and
// must actually have skipped work.
func TestFastPathBitIdentical(t *testing.T) {
	const iters = 4096
	for _, cpu := range steadyCPUs(t) {
		for _, prog := range fixedAddrProgs(cpu) {
			slow, fast, fs := runBoth(t, cpu, prog, iters)
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s/%s: fast path diverged\nslow: %+v\nfast: %+v", cpu.Name, prog.Name, slow, fast)
			}
			if fi, fc := fs.FastForwarded(); fi == 0 || fc == 0 {
				t.Errorf("%s/%s: fast path did not engage (skipped %d iters, %d cycles)", cpu.Name, prog.Name, fi, fc)
			}
		}
	}
}

// TestFastPathBackToBackRuns checks the hierarchy bookkeeping the skip
// leaves behind: a second Run on the same simulator (retained cache and
// prefetcher state, the evaluator's warm-up/measure pattern) must match the
// slow path too.
func TestFastPathBackToBackRuns(t *testing.T) {
	const iters = 2048
	for _, cpu := range steadyCPUs(t) {
		for _, prog := range fixedAddrProgs(cpu) {
			ss := NewSim(cpu)
			ss.SetFastPath(false)
			fs := NewSim(cpu)
			for run := 0; run < 2; run++ {
				slow := mustRun(t, ss, prog, iters)
				fast := mustRun(t, fs, prog, iters)
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("%s/%s run %d: diverged\nslow: %+v\nfast: %+v", cpu.Name, prog.Name, run, slow, fast)
				}
			}
		}
	}
}

// TestFastPathIrregularIters sweeps iteration counts (including ones that
// leave awkward tails) to pin the exact-tail arithmetic.
func TestFastPathIrregularIters(t *testing.T) {
	cpu := isa.XeonSilver4110()
	for _, prog := range fixedAddrProgs(cpu) {
		for _, iters := range []int64{1, 2, 63, 100, 1000, 1001, 4097} {
			slow, fast, _ := runBoth(t, cpu, prog, iters)
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s iters=%d: diverged", prog.Name, iters)
			}
		}
	}
}

// TestReplayIterDependentAddresses: streaming and region-random programs,
// the address patterns translated operators emit, touch new addresses every
// iteration, yet response-verified replay (replay.go) fast-forwards them. It
// must stay bit-identical to the slow path across back-to-back runs, where
// the second run inherits the first run's hierarchy state.
func TestReplayIterDependentAddresses(t *testing.T) {
	ld := isa.MustScalar("movq")
	stream := &Program{Name: "stream", NumRegs: 2, ElemsPerIter: 1, Body: []UOp{
		{Instr: ld, Dst: 1, Srcs: [3]int16{NoReg, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrStride, Base: 1 << 28, Stride: 8}},
	}}
	random := &Program{Name: "random", NumRegs: 2, ElemsPerIter: 1, Body: []UOp{
		{Instr: ld, Dst: 1, Srcs: [3]int16{NoReg, NoReg, NoReg},
			Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 28, Region: 1 << 22, Seed: 3}},
	}}
	for _, prog := range []*Program{stream, random} {
		ss := NewSim(isa.XeonSilver4110())
		ss.SetFastPath(false)
		fs := NewSim(isa.XeonSilver4110())
		skipped := int64(0)
		for run := 0; run < 3; run++ {
			slow := mustRun(t, ss, prog, 2048)
			fast := mustRun(t, fs, prog, 2048)
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s run %d: replay diverged\nslow: %+v\nfast: %+v", prog.Name, run, slow, fast)
			}
			if ss.hier.AccessNo() != fs.hier.AccessNo() {
				t.Errorf("%s run %d: hierarchy access clocks diverged: slow %d fast %d",
					prog.Name, run, ss.hier.AccessNo(), fs.hier.AccessNo())
			}
			fi, _ := fs.FastForwarded()
			skipped += fi
		}
		if skipped == 0 {
			t.Errorf("%s: replay never engaged across 3 runs", prog.Name)
		}
	}
}

// TestFastPathUnderPerturbation: name-keyed latency/occupancy jitter keeps
// the trajectory periodic, so the fast path stays exact; port-fault
// injection hashes absolute cycles, so the fast path must decline.
func TestFastPathUnderPerturbation(t *testing.T) {
	cpu := isa.XeonSilver4110()
	prog := indepProg("fp-perturb", isa.MustScalar("add"), 8)
	jit := &Perturb{Seed: 99, LatJitter: 0.3, OccJitter: 0.3}
	ss := NewSim(cpu)
	ss.SetFastPath(false)
	ss.SetPerturb(jit)
	slow := mustRun(t, ss, prog, 4096)
	fs := NewSim(cpu)
	fs.SetPerturb(jit)
	fast := mustRun(t, fs, prog, 4096)
	if !reflect.DeepEqual(slow, fast) {
		t.Errorf("latency-jitter run diverged\nslow: %+v\nfast: %+v", slow, fast)
	}

	pf := NewSim(cpu)
	pf.SetPerturb(&Perturb{Seed: 99, PortFaultRate: 0.05})
	mustRun(t, pf, prog, 4096)
	if fi, _ := pf.FastForwarded(); fi != 0 {
		t.Errorf("fast path engaged under port-fault injection (skipped %d iters)", fi)
	}
}

// TestFastPathDeclinesTrace: an attached tracer records absolute cycles for
// every span, so extrapolation must be off.
func TestFastPathDeclinesTrace(t *testing.T) {
	s := NewSim(isa.XeonSilver4110())
	s.SetTracer(telemetry.NewTracer())
	mustRun(t, s, indepProg("fp-trace", isa.MustScalar("add"), 4), 512)
	if fi, _ := s.FastForwarded(); fi != 0 {
		t.Errorf("fast path engaged with a tracer attached (skipped %d iters)", fi)
	}
}

// TestFastPathSpeedupObservable: the point of the exercise — the skip must
// cover the overwhelming majority of a long run.
func TestFastPathSpeedupObservable(t *testing.T) {
	s := NewSim(isa.XeonSilver4110())
	const iters = 1 << 16
	mustRun(t, s, indepProg("fp-speed", isa.MustScalar("add"), 8), iters)
	fi, _ := s.FastForwarded()
	if fi < iters*9/10 {
		t.Errorf("fast path skipped only %d of %d iterations", fi, iters)
	}
}
