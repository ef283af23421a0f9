package uarch

import (
	"fmt"
	"reflect"
	"testing"

	"hef/internal/isa"
)

// skelTestSeq makes each invocation's program content unique, so counter
// assertions see a genuinely cold cache entry even under -count=N (the
// process-wide skeleton cache outlives a single test run).
var skelTestSeq int

func skelTestName(prefix string) string {
	skelTestSeq++
	return fmt.Sprintf("%s-%d", prefix, skelTestSeq)
}

// TestSkeletonCacheKeyEdges pins the cache-key contract: identical
// (program, LatJitter, OccJitter, Seed) triples share one skeleton, and any
// change to a timing input — either jitter amplitude or, once an amplitude
// is nonzero, the seed — yields a distinct skeleton. A perturbed model must
// never be handed tables built under someone else's latencies.
func TestSkeletonCacheKeyEdges(t *testing.T) {
	prog := indepProg("skel-key-edges", isa.MustScalar("add"), 8)
	base := lookupSkeleton(prog, 0, 0, 0)
	if again := lookupSkeleton(prog, 0, 0, 0); again != base {
		t.Fatal("identical key must return the cached skeleton")
	}

	lat := lookupSkeleton(prog, 0.3, 0, 7)
	occ := lookupSkeleton(prog, 0, 0.3, 7)
	seed := lookupSkeleton(prog, 0.3, 0, 8)
	if lat == base || occ == base {
		t.Fatal("nonzero timing jitter must not reuse the unperturbed skeleton")
	}
	if lat == occ {
		t.Fatal("LatJitter and OccJitter configurations must not share a skeleton")
	}
	if seed == lat {
		t.Fatal("changing the seed under nonzero jitter must rebuild the skeleton")
	}

	other := indepProg("skel-key-edges-other", isa.MustScalar("imul"), 8)
	if lookupSkeleton(other, 0, 0, 0) == base {
		t.Fatal("distinct program content must not share a skeleton")
	}
}

// TestSkeletonTablesResolvePerturbation: a perturbed skeleton's latency and
// occupancy columns must equal Perturb.Latency/Occupancy applied per µop —
// the draws are baked into the tables, never resolved per issue.
func TestSkeletonTablesResolvePerturbation(t *testing.T) {
	prog := chainProg("skel-tables", isa.MustScalar("imul"), 6)
	for _, seed := range []uint64{1, 7, 99} {
		p := &Perturb{Seed: seed, LatJitter: 0.5, OccJitter: 0.5}
		sk := lookupSkeleton(prog, 0.5, 0.5, seed)
		for i := range prog.Body {
			in := prog.Body[i].Instr
			if got, want := sk.lat[i], int32(p.Latency(in)); got != want {
				t.Fatalf("seed %d µop %d: skeleton lat %d, Perturb.Latency %d", seed, i, got, want)
			}
			if got, want := sk.occ[i], int32(p.Occupancy(in)); got != want {
				t.Fatalf("seed %d µop %d: skeleton occ %d, Perturb.Occupancy %d", seed, i, got, want)
			}
		}
	}
}

// TestSkeletonCacheHitMissCounters: a first lookup is a miss, repeats are
// hits, and the bind fast path (same sim, same program, same perturbation)
// counts as a hit without touching the map.
func TestSkeletonCacheHitMissCounters(t *testing.T) {
	prog := indepProg(skelTestName("skel-counters"), isa.MustScalar("add"), 4)
	h0, m0 := skelHits.Load(), skelMisses.Load()
	lookupSkeleton(prog, 0.1, 0, 3)
	if skelMisses.Load() != m0+1 {
		t.Fatalf("first lookup: misses %d, want %d", skelMisses.Load(), m0+1)
	}
	lookupSkeleton(prog, 0.1, 0, 3)
	if skelHits.Load() != h0+1 {
		t.Fatalf("second lookup: hits %d, want %d", skelHits.Load(), h0+1)
	}

	cpu := steadyCPUs(t)[0]
	s := NewSim(cpu)
	mustRun(t, s, prog, 64)
	h1 := skelHits.Load()
	mustRun(t, s, prog, 64)
	if skelHits.Load() != h1+1 {
		t.Fatalf("rebind of the bound skeleton: hits %d, want %d", skelHits.Load(), h1+1)
	}
}

// TestSkeletonPerturbSwitch drives one simulator through a perturbation
// change and back. The perturbed run must rebind to a different skeleton
// (stale latencies are the failure mode this cache must never produce), the
// return to the unperturbed model must hit the original cached skeleton and
// reproduce the original Result exactly, and the perturbed Result must be
// reproducible from a cold simulator sharing the process-wide cache.
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
	sk0 := s.skel

	s.SetPerturb(jit)
	r1 := mustRun(t, s, prog, 256)
	if s.skel == sk0 {
		t.Fatal("perturbed run reused the unperturbed skeleton")
	}

	s.SetPerturb(nil)
	r2 := mustRun(t, s, prog, 256)
	if s.skel != sk0 {
		t.Fatal("removing the perturbation must hit the original cached skeleton")
	}
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
// cache/frequency jitter act through a cloned CPU model, so none of them may
// key the skeleton — such runs share the unperturbed tables.
func TestSkeletonNonTimingPerturbSharesSkeleton(t *testing.T) {
	cpu := steadyCPUs(t)[0]
	prog := hotProbeProg("skel-nontiming")

	s := NewSim(cpu)
	mustRun(t, s, prog, 128)
	sk0 := s.skel

	for _, p := range []*Perturb{
		{Seed: 11, PortFaultRate: 0.2},
		{Seed: 11, CacheJitter: 0.3},
		{Seed: 11, FreqJitter: 0.3},
	} {
		s.SetPerturb(p)
		mustRun(t, s, prog, 128)
		if s.skel != sk0 {
			t.Fatalf("%+v must share the unperturbed skeleton", p)
		}
	}
}

// TestSkeletonKeyGolden pins the bytes of the skeleton-cache key, which
// shares Program.AppendFingerprint with the memo keys: a small program
// unperturbed, and a 3,198-instruction one (about 500 KB of encoding)
// under timing jitter.
func TestSkeletonKeyGolden(t *testing.T) {
	cases := []struct {
		name   string
		prog   *Program
		lj, oj float64
		seed   uint64
		key    string
	}{
		{"hot probe", hotProbeProg("skel-golden"), 0, 0, 0, "6c627c3fa58c3ccf2f1228979364dcbc"},
		{"stack spill x1066", stackSpillProg("skel-golden-big", 1066), 0.1, 0.2, 7, "95f1762cd6aa56df58d64c1eb9e1fc02"},
	}
	for _, c := range cases {
		k := skeletonKey(c.prog, c.lj, c.oj, c.seed)
		if got := fmt.Sprintf("%x", k); got != c.key {
			t.Errorf("%s: skeletonKey = %s, golden %s", c.name, got, c.key)
		}
	}
}

// TestBindGrowsSlabGeometrically: binding 64 programs whose register counts
// rise from 8 to 512 reallocates the register slab at most 8 times, where an
// exact fit would reallocate on every bind.
func TestBindGrowsSlabGeometrically(t *testing.T) {
	s := NewSim(isa.XeonSilver4110())
	reallocs, last := 0, -1
	for i := 0; i < 64; i++ {
		prog := indepProg(skelTestName("slab-growth"), isa.MustScalar("add"), 1)
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
