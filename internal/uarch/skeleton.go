package uarch

import (
	"sync"
	"sync/atomic"

	"hef/internal/fpenc"
	"hef/internal/isa"
)

// Schedule skeletons.
//
// Everything the per-cycle loop needs to know about a program that does not
// depend on the machine's dynamic state is a pure function of the program's
// content and of the (latency, occupancy) half of the active perturbation:
// instruction classes, perturb-resolved latencies and occupancies, µop
// counts, the dependence structure, and the address streams. A skeleton is
// that data flattened into structure-of-arrays form, so the hot loop indexes
// parallel slices instead of chasing Body → UOp → Instr pointers and
// re-hashing instruction names per issue under a perturbed model.
//
// Skeletons are immutable once built and shared process-wide through a
// content-addressed cache keyed by the program fingerprint (the same
// canonical encoding internal/memo keys measurements by) plus the normalized
// timing perturbation. Re-simulating one translated program under K
// perturbed CPU models — a hefsens sweep, robust.Analyze trials — decodes
// and binds it once per distinct (program, LatJitter, OccJitter, Seed)
// triple instead of once per run. Port-fault, cache, and frequency jitter do
// not enter the key: they act through dynamic per-cycle checks or through a
// cloned CPU model, never through the skeleton's tables.

// srcKind classifies where one source operand's value comes from.
const (
	srcNone    uint8 = iota // no operand, or loop-invariant: always ready
	srcSame                 // produced earlier in the same iteration
	srcCarried              // produced by the previous iteration (loop-carried)
)

// skeleton is the bound, machine-independent form of one program under one
// timing perturbation. All per-µop slices are indexed by body position;
// src-operand slices are flattened 3-wide.
type skeleton struct {
	// body aliases the Body of the program the skeleton was built from;
	// cold paths (trace events, debug printing) read instruction names and
	// comments through it. Two programs with identical content share a
	// skeleton, and identical content implies identical names.
	body []UOp

	class []isa.Class
	// lat and occ are the result latency and port occupancy with the
	// skeleton's LatJitter/OccJitter draws already applied.
	lat  []int32
	occ  []int32
	uops []int32
	// lqSlots is the gather load-queue footprint (Lanes/2, min 1); zero for
	// non-gather classes.
	lqSlots []int32
	lanes   []int32
	// isStream marks software prefetches with a sequential (AddrStride)
	// address pattern, which bypass the line-fill buffers.
	isStream []bool
	// w512 marks 512-bit vector µops (they issue on the Vec512 unit ports
	// and count toward the frequency license).
	w512 []bool
	addr []AddrSpec
	dst  []int16

	// srcKind/srcReg/srcMem describe operand k of body µop i at index i*3+k:
	// the dependence kind, the architectural register read (equal to the
	// producer's Dst for same-iteration and carried operands), and whether
	// the producer is a memory-class instruction (for stall attribution).
	srcKind []uint8
	srcReg  []int16
	srcMem  []bool

	numRegs      int
	bodyLen      int
	elemsPerIter int
	// srcSafe marks body µops whose readiness the event-driven scheduler
	// tracks exactly: every tracked operand reads a register with exactly one
	// writer in the body (so the sampled producer completion is final — no
	// other writer can rewrite the watched cell while the consumer waits)
	// whose latency is at least 1 (so an issue can never make a dependent
	// ready within the same cycle's scan). Unsafe µops — accumulator chains
	// redefine their pinned register every unrolled pack — are instead
	// re-sampled exhaustively on every scan.
	srcSafe []bool
}

// skelKey identifies a skeleton: program content × normalized timing
// perturbation.
type skelKey [16]byte

// normalizePerturb reduces a perturbation to the triple that affects the
// skeleton's tables. With both timing jitters zero the seed is irrelevant
// (factor(·, 0) == 1), so all such runs — including pure port-fault or
// cache/frequency jitter configurations — share the unperturbed skeleton.
func normalizePerturb(p *Perturb) (lj, oj float64, seed uint64) {
	if p == nil || (p.LatJitter == 0 && p.OccJitter == 0) {
		return 0, 0, 0
	}
	return p.LatJitter, p.OccJitter, p.Seed
}

func skeletonKey(prog *Program, lj, oj float64, seed uint64) skelKey {
	var e fpenc.E
	e.Buf = make([]byte, 0, 512)
	e.F64(lj)
	e.F64(oj)
	e.U64(seed)
	prog.AppendFingerprint(&e)
	return e.Sum()
}

// The process-wide skeleton cache. Eviction is clear-on-full: skeletons are
// content-addressed and rebuild identically, so dropping the whole map on
// overflow is safe and keeps the policy trivial.
const skelCacheCap = 4096

var (
	skelMu    sync.RWMutex
	skelCache = make(map[skelKey]*skeleton)

	skelHits   atomic.Uint64
	skelMisses atomic.Uint64
)

// SkeletonCacheLen reports the number of cached skeletons. Test-only.
func SkeletonCacheLen() int {
	skelMu.RLock()
	defer skelMu.RUnlock()
	return len(skelCache)
}

// lookupSkeleton returns the shared skeleton for (prog, lj, oj, seed),
// building and caching it on first use.
func lookupSkeleton(prog *Program, lj, oj float64, seed uint64) *skeleton {
	key := skeletonKey(prog, lj, oj, seed)
	skelMu.RLock()
	sk := skelCache[key]
	skelMu.RUnlock()
	if sk != nil {
		skelHits.Add(1)
		return sk
	}
	skelMisses.Add(1)
	sk = buildSkeleton(prog, lj, oj, seed)
	skelMu.Lock()
	if have, ok := skelCache[key]; ok {
		sk = have // lost a build race; share the first one in
	} else {
		if len(skelCache) >= skelCacheCap {
			skelCache = make(map[skelKey]*skeleton)
		}
		skelCache[key] = sk
	}
	skelMu.Unlock()
	return sk
}

// buildSkeleton flattens prog into SoA form with the timing perturbation
// resolved. It runs once per distinct (program, perturbation) and is the only
// place instruction names are hashed.
func buildSkeleton(prog *Program, lj, oj float64, seed uint64) *skeleton {
	prog.prepare()
	var p *Perturb
	if lj != 0 || oj != 0 {
		p = &Perturb{Seed: seed, LatJitter: lj, OccJitter: oj}
	}
	n := len(prog.Body)
	sk := &skeleton{
		body:         prog.Body,
		class:        make([]isa.Class, n),
		lat:          make([]int32, n),
		occ:          make([]int32, n),
		uops:         make([]int32, n),
		lqSlots:      make([]int32, n),
		lanes:        make([]int32, n),
		isStream:     make([]bool, n),
		w512:         make([]bool, n),
		addr:         make([]AddrSpec, n),
		dst:          make([]int16, n),
		srcKind:      make([]uint8, 3*n),
		srcReg:       make([]int16, 3*n),
		srcMem:       make([]bool, 3*n),
		numRegs:      prog.NumRegs,
		bodyLen:      n,
		elemsPerIter: prog.ElemsPerIter,
	}
	for i := range prog.Body {
		u := &prog.Body[i]
		in := u.Instr
		sk.class[i] = in.Class
		if p == nil {
			sk.lat[i] = int32(in.Latency)
			sk.occ[i] = int32(in.Occupancy)
		} else {
			sk.lat[i] = int32(p.Latency(in))
			sk.occ[i] = int32(p.Occupancy(in))
		}
		sk.uops[i] = int32(in.Uops)
		sk.lanes[i] = int32(in.Lanes)
		if in.Class == isa.GatherOp {
			lq := int32(in.Lanes / 2)
			if lq < 1 {
				lq = 1
			}
			sk.lqSlots[i] = lq
		}
		sk.isStream[i] = in.Class == isa.Prefetch && u.Addr.Kind == AddrStride
		sk.w512[i] = in.Width == isa.W512 && in.Class.IsVector()
		sk.addr[i] = u.Addr
		sk.dst[i] = u.Dst
		d := &prog.deps[i]
		for k := 0; k < 3; k++ {
			var prod int32
			switch {
			case d.producer[k] >= 0:
				sk.srcKind[i*3+k] = srcSame
				prod = d.producer[k]
			case d.carried[k] >= 0:
				sk.srcKind[i*3+k] = srcCarried
				prod = d.carried[k]
			default:
				sk.srcKind[i*3+k] = srcNone
				continue
			}
			sk.srcReg[i*3+k] = prog.Body[prod].Dst
			sk.srcMem[i*3+k] = prog.Body[prod].Instr.Class.IsMemory()
		}
	}
	writerCnt := make([]int32, prog.NumRegs)
	writerLat := make([]int32, prog.NumRegs)
	for i := range prog.Body {
		if d := prog.Body[i].Dst; d != NoReg {
			writerCnt[d]++
			writerLat[d] = sk.lat[i]
		}
	}
	sk.srcSafe = make([]bool, n)
	for i := 0; i < n; i++ {
		safe := true
		for k := 0; k < 3; k++ {
			if sk.srcKind[i*3+k] == srcNone {
				continue
			}
			if r := sk.srcReg[i*3+k]; writerCnt[r] != 1 || writerLat[r] < 1 {
				safe = false
				break
			}
		}
		sk.srcSafe[i] = safe
	}
	return sk
}

// bind attaches the skeleton for (prog, perturb) to the simulator and sizes
// the register slab for its register count. The common case — re-running the
// program bound last time under the same timing perturbation — is a pointer
// comparison: no validation, no hashing, no allocation.
func (s *Sim) bind(prog *Program) error {
	lj, oj, seed := normalizePerturb(s.perturb)
	if s.skel != nil && s.skelProg == prog && s.skelLat == lj && s.skelOcc == oj && s.skelSeed == seed {
		skelHits.Add(1)
		return nil
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	sk := lookupSkeleton(prog, lj, oj, seed)
	s.skel = sk
	s.skelProg = prog
	s.skelLat, s.skelOcc, s.skelSeed = lj, oj, seed
	if need := regRingSlots * sk.numRegs; cap(s.slab) < need {
		// Grow geometrically: a search binds programs of rising register
		// counts, and an exact fit would reallocate on nearly every one.
		n := max(need, 2*cap(s.slab))
		s.slab = make([]int64, need, n)
		s.watchHead = make([]int32, need, n)
	} else {
		s.slab = s.slab[:need]
		s.watchHead = s.watchHead[:need]
	}
	if n := sk.bodyLen; cap(s.blockedGen) < n {
		s.blockedGen = make([]int64, n)
		s.blockedRetry = make([]int64, n)
	} else {
		s.blockedGen = s.blockedGen[:n]
		s.blockedRetry = s.blockedRetry[:n]
	}
	return nil
}
