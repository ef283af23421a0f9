package uarch

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hef/internal/isa"
)

var updateGroups = flag.Bool("update", false, "rewrite testdata/groups.golden from the current simulator")

// groupSplitProg is one loop body that puts every pair of µops the
// scheduler must not treat alike side by side: demand loads, gathers of two
// lane counts (different load-queue footprints), random and streaming
// prefetches, stores, 512-bit and 256-bit vector ALU ops (some of them
// independent, so both widths are ready in the same cycles), 512-bit and
// 256-bit shuffles, and an accumulator chain (a register written twice per
// iteration, so its readers are re-sampled on every scan). Random loads and
// prefetches over a region far beyond the LLC keep the line-fill buffers
// saturated and the gathers, which hit the L1, hold load-queue slots for
// their whole latency, so younger µops regularly find resources that an
// older, differently constrained µop could not get. CPUs
// without 512-bit units run a 256-bit op in the 512-bit ALU slot.
func groupSplitProg(cpu *isa.CPU) *Program {
	alu512 := isa.MustAVX512("vpaddq")
	if len(cpu.Vec512Ports) == 0 {
		alu512 = isa.MustAVX2("vpsubq.y")
	}
	none := [3]int16{NoReg, NoReg, NoReg}
	rnd := func(base, region, seed uint64) AddrSpec {
		return AddrSpec{Kind: AddrRandom, Base: base, Region: region, Seed: seed}
	}
	seq := func(base uint64) AddrSpec { return AddrSpec{Kind: AddrStride, Base: base, Stride: 8} }
	return &Program{Name: "group-split", NumRegs: 16, ElemsPerIter: 8,
		VectorStatements: 1, VectorWidth: isa.W512,
		Body: []UOp{
			{Instr: isa.MustScalar("movq"), Dst: 2, Srcs: none, Addr: rnd(1<<36, 256<<20, 1)},
			{Instr: isa.MustAVX512("vmovdqu64"), Dst: 3, Srcs: none, Addr: seq(1 << 37)},
			{Instr: isa.MustAVX512("vpgatherqq"), Dst: 4, Srcs: [3]int16{0, NoReg, NoReg}, Addr: rnd(1<<38, 16<<10, 2)},
			{Instr: isa.MustAVX2("vpgatherqq.y"), Dst: 5, Srcs: [3]int16{0, NoReg, NoReg}, Addr: rnd(1<<39, 16<<10, 3)},
			{Instr: isa.MustScalar("prefetch"), Dst: NoReg, Srcs: none, Addr: rnd(1<<40, 256<<20, 4)},
			{Instr: isa.MustScalar("prefetch"), Dst: NoReg, Srcs: none, Addr: seq(1 << 41)},
			{Instr: alu512, Dst: 6, Srcs: [3]int16{3, 4, NoReg}},
			{Instr: alu512, Dst: 13, Srcs: [3]int16{0, 1, NoReg}},
			{Instr: alu512, Dst: 14, Srcs: [3]int16{1, 0, NoReg}},
			{Instr: isa.MustAVX2("vpaddq.y"), Dst: 7, Srcs: [3]int16{5, 1, NoReg}},
			{Instr: isa.MustAVX2("vpaddq.y"), Dst: 15, Srcs: [3]int16{0, 1, NoReg}},
			{Instr: isa.MustAVX512("vpbroadcastq"), Dst: 8, Srcs: [3]int16{6, NoReg, NoReg}},
			{Instr: isa.MustAVX2("vpbroadcastq.y"), Dst: 9, Srcs: [3]int16{7, NoReg, NoReg}},
			{Instr: isa.MustScalar("add"), Dst: 10, Srcs: [3]int16{10, 2, NoReg}},
			{Instr: isa.MustScalar("imul"), Dst: 11, Srcs: [3]int16{2, 1, NoReg}},
			{Instr: isa.MustScalar("add"), Dst: 10, Srcs: [3]int16{10, 11, NoReg}},
			{Instr: isa.MustScalar("movq.st"), Dst: NoReg, Srcs: [3]int16{10, NoReg, NoReg}, Addr: seq(1 << 42)},
			{Instr: isa.MustAVX512("vmovdqu64.st"), Dst: NoReg, Srcs: [3]int16{8, NoReg, NoReg}, Addr: seq(1 << 43)},
			{Instr: isa.MustScalar("add"), Dst: 12, Srcs: [3]int16{9, 10, NoReg}},
		}}
}

// TestRunIntoGroupGolden pins every Result field of groupSplitProg — a cold
// and a warm run on one simulator — on all four CPUs with the fast path off
// and on (which must also agree exactly), plus silver under port faults and
// silver with a small load queue.
// hefopt's operators never put all these µop kinds in one loop, so a
// scheduler that confuses two kinds of µop (lets one's failure to issue hold
// back the other) can pass the operator goldens and still fail here. Run
// with -update to rewrite the golden after an intended model change.
func TestRunIntoGroupGolden(t *testing.T) {
	const iters = 1024
	var b bytes.Buffer
	run := func(cpu *isa.CPU, prog *Program, fast bool, p *Perturb) [2]Result {
		t.Helper()
		sim := NewSim(cpu)
		sim.SetFastPath(fast)
		sim.SetPerturb(p)
		var runs [2]Result
		for i := range runs {
			if err := sim.RunInto(&runs[i], prog, iters); err != nil {
				t.Fatalf("%s fast=%v: %v", cpu.Name, fast, err)
			}
		}
		return runs
	}
	digest := func(runs [2]Result) string {
		h := sha256.New()
		for _, r := range runs {
			fmt.Fprintf(h, "%+v\n", r)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, cpu := range steadyCPUs(t) {
		prog := groupSplitProg(cpu)
		slow, fast := run(cpu, prog, false, nil), run(cpu, prog, true, nil)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("%s: fast path diverged from the slow path", cpu.Name)
		}
		fmt.Fprintf(&b, "%s slow %s\n", cpu.Name, digest(slow))
		fmt.Fprintf(&b, "%s fast %s\n", cpu.Name, digest(fast))
		if cpu.Name == isa.XeonSilver4110().Name {
			faults := &Perturb{Seed: 3, PortFaultRate: 0.02}
			fmt.Fprintf(&b, "%s faults %s\n", cpu.Name, digest(run(cpu, prog, true, faults)))
		}
	}
	// No built-in model's load queue fills up before its line-fill buffers
	// do, so one silver variant with a 12-entry load queue makes the two
	// gathers' load-queue footprints (4 and 2 slots) decide who issues.
	tight := isa.XeonSilver4110()
	tight.LoadQueue = 12
	fmt.Fprintf(&b, "%s lq12 %s\n", tight.Name, digest(run(tight, groupSplitProg(tight), false, nil)))

	path := filepath.Join("testdata", "groups.golden")
	if *updateGroups {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n got\n%s\nwant\n%s", path, got, want)
	}
}
