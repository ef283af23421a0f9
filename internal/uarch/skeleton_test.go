package uarch

import (
	"reflect"
	"sync"
	"testing"

	"hef/internal/isa"
)

// bindCounted binds prog on s and reports whether the bind rebuilt the
// skeleton, checking that it counted exactly one hit or one miss.
func bindCounted(t *testing.T, s *Sim, prog *Program) (rebuilt bool) {
	t.Helper()
	h0, m0 := skelHits.Load(), skelMisses.Load()
	if err := s.bind(prog); err != nil {
		t.Fatal(err)
	}
	dh, dm := skelHits.Load()-h0, skelMisses.Load()-m0
	if dh+dm != 1 {
		t.Fatalf("%s: one bind counted %d hits and %d misses, want exactly one of either", prog.Name, dh, dm)
	}
	return dm == 1
}

// gatherPrefetchProg mixes gathers (with all three operands, one of them
// loop-carried), strided and random prefetches, and loads whose operands are
// absent or loop-invariant.
func gatherPrefetchProg(name string, n int) *Program {
	g := isa.MustAVX512("vpgatherqq")
	pf := isa.MustScalar("prefetch")
	ld := isa.MustScalar("movq")
	p := &Program{Name: name, NumRegs: 3 + n, ElemsPerIter: 8 * n,
		VectorStatements: 1, VectorWidth: isa.W512}
	for i := 0; i < n; i++ {
		r := int16(3 + i)
		p.Body = append(p.Body,
			UOp{Instr: g, Dst: r, Srcs: [3]int16{0, 1, 2},
				Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 30, Region: 1 << 16, Seed: uint64(i)}},
			UOp{Instr: pf, Dst: NoReg, Srcs: [3]int16{r, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStride, Base: 1 << 32, Stride: 8, Offset: uint64(i)}},
			UOp{Instr: pf, Dst: NoReg, Srcs: [3]int16{NoReg, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrRandom, Base: 1 << 34, Region: 1 << 20, Seed: uint64(i), LaneSel: uint8(i % 8)}},
			UOp{Instr: ld, Dst: 2, Srcs: [3]int16{1, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStride, Base: 1 << 36, Stride: 8, Offset: uint64(i)}},
		)
	}
	return p
}

// skelColumns names a skeleton's per-µop columns for failure messages.
func skelColumns(sk *skeleton) map[string]any {
	return map[string]any{
		"class": sk.class, "lat": sk.lat, "occ": sk.occ, "uops": sk.uops,
		"lqSlots": sk.lqSlots, "lanes": sk.lanes, "isStream": sk.isStream,
		"w512": sk.w512, "addr": sk.addr, "dst": sk.dst, "srcKind": sk.srcKind,
		"srcReg": sk.srcReg, "srcMem": sk.srcMem, "srcSafe": sk.srcSafe,
	}
}

// TestSkeletonRebuildMatchesFresh: a simulator that rebuilds its skeleton in
// place over a sequence of programs — a large timing-perturbed one first,
// then smaller unperturbed, spilling and gather/prefetch ones — must hold
// after every bind exactly the skeleton a fresh simulator builds. Stale
// values left by a larger or differently shaped program (gather load-queue
// slots, operands that are now absent) are the failure mode. A rebuild of a
// program no larger than one already bound must not allocate.
func TestSkeletonRebuildMatchesFresh(t *testing.T) {
	cpu := isa.XeonGold6240R()
	jit := &Perturb{Seed: 5, LatJitter: 0.4, OccJitter: 0.3}
	big := gatherPrefetchProg("skel-big", 48)
	steps := []struct {
		prog    *Program
		perturb *Perturb
	}{
		{big, jit},
		{indepProg("skel-indep", isa.MustScalar("add"), 8), nil},
		{stackSpillProg("skel-spill", 20), nil},
		{gatherPrefetchProg("skel-gather", 5), nil},
		{big, nil},
		{chainProg("skel-chain", isa.MustScalar("imul"), 6), jit},
		{hotProbeProg("skel-probe"), &Perturb{Seed: 5, PortFaultRate: 0.1}},
	}
	s := NewSim(cpu)
	for i, st := range steps {
		s.SetPerturb(st.perturb)
		if !bindCounted(t, s, st.prog) {
			t.Fatalf("step %d (%s): binding a new program or timing perturbation did not rebuild", i, st.prog.Name)
		}
		if bindCounted(t, s, st.prog) {
			t.Fatalf("step %d (%s): re-binding the bound program rebuilt the skeleton", i, st.prog.Name)
		}
		fresh := NewSim(cpu)
		fresh.SetPerturb(st.perturb)
		if err := fresh.bind(st.prog); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.skel, fresh.skel) {
			got, want := skelColumns(&s.skel), skelColumns(&fresh.skel)
			for col := range want {
				if !reflect.DeepEqual(got[col], want[col]) {
					t.Errorf("step %d (%s): column %s\n  rebuilt %v\n  fresh   %v", i, st.prog.Name, col, got[col], want[col])
				}
			}
			t.Fatalf("step %d (%s): rebuilt skeleton differs from a fresh build", i, st.prog.Name)
		}
	}

	// Alternate two programs no larger than big: every bind rebuilds, in the
	// storage big already grew.
	s.SetPerturb(nil)
	a, b := steps[1].prog, steps[3].prog
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.bind(a); err != nil {
			t.Fatal(err)
		}
		if err := s.bind(b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("rebuilding skeletons within grown storage allocates %.1f objects per pair of binds, want 0", allocs)
	}
}

// TestSkeletonCacheKeyEdges pins what the bound skeleton is keyed on: the
// program and the (LatJitter, OccJitter, Seed) triple. Re-binding an
// identical key keeps the skeleton, and any change to a timing input —
// either jitter amplitude or, once an amplitude is nonzero, the seed — or
// to the program rebuilds it. A perturbed model must never be handed tables
// built under other latencies.
func TestSkeletonCacheKeyEdges(t *testing.T) {
	prog := indepProg("skel-key-edges", isa.MustScalar("add"), 8)
	other := indepProg("skel-key-edges-other", isa.MustScalar("imul"), 8)
	s := NewSim(isa.XeonSilver4110())
	steps := []struct {
		what    string
		prog    *Program
		perturb *Perturb
		rebuild bool
	}{
		{"first bind", prog, nil, true},
		{"identical key", prog, nil, false},
		{"seed under zero jitter", prog, &Perturb{Seed: 9}, false},
		{"latency jitter", prog, &Perturb{Seed: 7, LatJitter: 0.3}, true},
		{"identical jittered key", prog, &Perturb{Seed: 7, LatJitter: 0.3}, false},
		{"occupancy jitter in place of latency jitter", prog, &Perturb{Seed: 7, OccJitter: 0.3}, true},
		{"back to latency jitter", prog, &Perturb{Seed: 7, LatJitter: 0.3}, true},
		{"seed under nonzero jitter", prog, &Perturb{Seed: 8, LatJitter: 0.3}, true},
		{"distinct program", other, &Perturb{Seed: 8, LatJitter: 0.3}, true},
		{"jitter removed", other, nil, true},
	}
	for _, st := range steps {
		s.SetPerturb(st.perturb)
		if got := bindCounted(t, s, st.prog); got != st.rebuild {
			t.Fatalf("%s: rebuilt %v, want %v", st.what, got, st.rebuild)
		}
	}
}

// TestSkeletonCacheHitMissCounters: a first bind is a miss, a repeat bind is
// a hit, and a second Run of the bound program on the same simulator counts
// exactly one hit and no miss.
func TestSkeletonCacheHitMissCounters(t *testing.T) {
	prog := indepProg("skel-counters", isa.MustScalar("add"), 4)
	s := NewSim(steadyCPUs(t)[0])
	s.SetPerturb(&Perturb{Seed: 3, LatJitter: 0.1})
	h0, m0 := skelHits.Load(), skelMisses.Load()
	if err := s.bind(prog); err != nil {
		t.Fatal(err)
	}
	if skelMisses.Load() != m0+1 || skelHits.Load() != h0 {
		t.Fatalf("first bind: hits +%d misses +%d, want +0 and +1", skelHits.Load()-h0, skelMisses.Load()-m0)
	}
	if err := s.bind(prog); err != nil {
		t.Fatal(err)
	}
	if skelHits.Load() != h0+1 || skelMisses.Load() != m0+1 {
		t.Fatalf("repeat bind: hits +%d misses +%d, want +1 and +1", skelHits.Load()-h0, skelMisses.Load()-m0)
	}

	mustRun(t, s, prog, 64)
	h1, m1 := skelHits.Load(), skelMisses.Load()
	mustRun(t, s, prog, 64)
	if skelHits.Load() != h1+1 || skelMisses.Load() != m1 {
		t.Fatalf("rerun of the bound program: hits +%d misses +%d, want +1 and +0", skelHits.Load()-h1, skelMisses.Load()-m1)
	}
}

// TestSkeletonConcurrentRunsShareProgram: two simulators binding and running
// one fresh *Program at once — under different timing perturbations, so both
// rebuild repeatedly — must not race (binding never writes to the program)
// and must each reproduce a lone simulator's results.
func TestSkeletonConcurrentRunsShareProgram(t *testing.T) {
	cpu := isa.XeonSilver4110()
	prog := stackSpillProg("skel-shared", 200)
	perturbs := []*Perturb{nil, {Seed: 3, LatJitter: 0.4, OccJitter: 0.4}}
	const rounds = 4
	var got [2][rounds]*Result
	var errs [2]error
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSim(cpu)
			<-start
			for round := range got[w] {
				s.SetPerturb(perturbs[(w+round)%len(perturbs)])
				s.Hierarchy().Reset()
				if got[w][round], errs[w] = s.Run(prog, 64); errs[w] != nil {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for round, res := range got[w] {
			i := (w + round) % len(perturbs)
			lone := NewSim(cpu)
			lone.SetPerturb(perturbs[i])
			if want := mustRun(t, lone, prog, 64); !reflect.DeepEqual(res, want) {
				t.Errorf("simulator %d round %d: concurrent run %+v, lone run %+v", w, round, res, want)
			}
		}
	}
}

// TestSkeletonTablesResolvePerturbation: a perturbed skeleton's latency and
// occupancy columns must equal Perturb.Latency/Occupancy applied per µop —
// the draws are baked into the tables, never resolved per issue.
func TestSkeletonTablesResolvePerturbation(t *testing.T) {
	prog := chainProg("skel-tables", isa.MustScalar("imul"), 6)
	s := NewSim(isa.XeonSilver4110())
	for _, seed := range []uint64{1, 7, 99} {
		p := &Perturb{Seed: seed, LatJitter: 0.5, OccJitter: 0.5}
		s.SetPerturb(p)
		if err := s.bind(prog); err != nil {
			t.Fatal(err)
		}
		for i := range prog.Body {
			in := prog.Body[i].Instr
			if got, want := s.skel.lat[i], int32(p.Latency(in)); got != want {
				t.Fatalf("seed %d µop %d: skeleton lat %d, Perturb.Latency %d", seed, i, got, want)
			}
			if got, want := s.skel.occ[i], int32(p.Occupancy(in)); got != want {
				t.Fatalf("seed %d µop %d: skeleton occ %d, Perturb.Occupancy %d", seed, i, got, want)
			}
		}
	}
}

// TestSkeletonPerturbSwitch drives one simulator through a perturbation
// change and back. Each switch must rebuild the skeleton (stale latencies
// are the failure mode the bind fast path must never produce), the return
// to the unperturbed model must reproduce the original Result exactly, and
// the perturbed Result must be reproducible from a cold simulator.
func TestSkeletonPerturbSwitch(t *testing.T) {
	cpu := steadyCPUs(t)[0]
	prog := stackSpillProg("skel-switch", 6)
	jit := &Perturb{Seed: 7, LatJitter: 0.4, OccJitter: 0.4}

	// The cache hierarchy persists across Run calls on one simulator, so
	// every comparison below is between steady-state runs: one warm-up run
	// per configuration brings the program's (iteration-invariant) working
	// set resident.
	s := NewSim(cpu)
	mustRun(t, s, prog, 256)
	r0 := mustRun(t, s, prog, 256)

	s.SetPerturb(jit)
	if !bindCounted(t, s, prog) {
		t.Fatal("the perturbed run reused the unperturbed skeleton")
	}
	r1 := mustRun(t, s, prog, 256)

	s.SetPerturb(nil)
	if !bindCounted(t, s, prog) {
		t.Fatal("removing the perturbation kept the perturbed skeleton")
	}
	r2 := mustRun(t, s, prog, 256)
	if !reflect.DeepEqual(r0, r2) {
		t.Fatalf("result changed after a perturb round-trip:\n  before %+v\n  after  %+v", r0, r2)
	}

	cold := NewSim(cpu)
	cold.SetPerturb(&Perturb{Seed: 7, LatJitter: 0.4, OccJitter: 0.4})
	mustRun(t, cold, prog, 256)
	r3 := mustRun(t, cold, prog, 256)
	if !reflect.DeepEqual(r1, r3) {
		t.Fatalf("perturbed result not reproducible from a cold simulator:\n  warm %+v\n  cold %+v", r1, r3)
	}
}

// TestSkeletonNonTimingPerturbSharesSkeleton: port faults act per cycle and
// cache/frequency jitter act through a cloned CPU model, so none of them
// enters the skeleton — switching to them keeps the unperturbed tables
// without a rebuild.
func TestSkeletonNonTimingPerturbSharesSkeleton(t *testing.T) {
	cpu := steadyCPUs(t)[0]
	prog := hotProbeProg("skel-nontiming")

	s := NewSim(cpu)
	mustRun(t, s, prog, 128)

	for _, p := range []*Perturb{
		{Seed: 11, PortFaultRate: 0.2},
		{Seed: 11, CacheJitter: 0.3},
		{Seed: 11, FreqJitter: 0.3},
	} {
		s.SetPerturb(p)
		if bindCounted(t, s, prog) {
			t.Fatalf("%+v rebuilt the unperturbed skeleton", p)
		}
		mustRun(t, s, prog, 128)
	}
}

// TestBindGrowsSlabGeometrically: binding 64 programs whose register counts
// rise from 8 to 512 reallocates the register slab at most 8 times, where an
// exact fit would reallocate on every bind.
func TestBindGrowsSlabGeometrically(t *testing.T) {
	s := NewSim(isa.XeonSilver4110())
	reallocs, last := 0, -1
	for i := 0; i < 64; i++ {
		prog := indepProg("slab-growth", isa.MustScalar("add"), 1)
		prog.NumRegs = 8 + i*504/63
		if err := s.bind(prog); err != nil {
			t.Fatal(err)
		}
		if len(s.slab) != regRingSlots*prog.NumRegs || len(s.watchHead) != len(s.slab) {
			t.Fatalf("NumRegs %d: slab length %d, watch heads %d, want %d",
				prog.NumRegs, len(s.slab), len(s.watchHead), regRingSlots*prog.NumRegs)
		}
		if c := cap(s.slab); c != last {
			reallocs++
			last = c
		}
	}
	if reallocs > 8 {
		t.Errorf("binding 64 programs of rising register count reallocated the slab %d times, want <= 8", reallocs)
	}
}
