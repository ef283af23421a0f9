package uarch

import (
	"fmt"
	"sync/atomic"

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
// Each simulator owns one skeleton and rebuilds it in place whenever it binds
// a different program or timing perturbation; re-running the bound program is
// a pointer comparison. The skeleton is never shared, so nothing is keyed,
// locked or evicted: a search simulates each freshly translated program about
// once (the memo serves repeats), and hashing a program for a cache key cost
// more than rebuilding its tables. Port-fault, cache, and frequency jitter do
// not enter the skeleton: they act through dynamic per-cycle checks or through
// a cloned CPU model, never through its tables.

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
	// prog is the program the skeleton was built from and lj/oj/seed the
	// normalized timing perturbation (normalizePerturb) it resolves; bind's
	// fast path compares them.
	prog   *Program
	lj, oj float64
	seed   uint64

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
	// All three are zero for srcNone operands.
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
	// group numbers the issue groups: body µops whose issue test (tryIssue)
	// reads the same shared resources — the same class, w512, and isStream
	// (prefetches) and lqSlots (gathers) — share a number. One member failing
	// to issue means every other member fails too until a resource frees, so
	// the scheduler keeps one ready queue per group. groupRep[g] is the first
	// body µop of group g.
	group    []int32
	groupRep []int32

	// Build scratch, one entry per register: the body index of the last
	// writer of each register (-1 if none), of its most recent writer so far
	// in the body walk, and its number of writers.
	lastWriter, writtenSoFar, writerCnt []int32
}

// srcCell returns the register-slab offset that operand k of body µop b
// reads in iteration iter, or -1 when the operand is always ready: none,
// loop-invariant, or iteration 0's loop-carried read of the pre-loop value.
// Dispatch and stall attribution both derive operand cells through it.
func (sk *skeleton) srcCell(b, k int, iter int64) int {
	j := b*3 + k
	switch sk.srcKind[j] {
	case srcSame:
	case srcCarried:
		if iter == 0 {
			return -1
		}
		iter--
	default:
		return -1
	}
	return int(iter&regRingMask)*sk.numRegs + int(sk.srcReg[j])
}

// Process-wide skeleton counters, read through Totals: skelHits counts binds
// served by the simulator's bound skeleton, skelMisses counts skeleton builds.
var (
	skelHits   atomic.Uint64
	skelMisses atomic.Uint64
)

// normalizePerturb reduces a perturbation to the triple that affects the
// skeleton's tables. With both timing jitters zero the seed is irrelevant
// (factor(·, 0) == 1), so all such runs — including pure port-fault or
// cache/frequency jitter configurations — bind the unperturbed skeleton.
func normalizePerturb(p *Perturb) (lj, oj float64, seed uint64) {
	if p == nil || (p.LatJitter == 0 && p.OccJitter == 0) {
		return 0, 0, 0
	}
	return p.LatJitter, p.OccJitter, p.Seed
}

// grow returns col with length n, keeping its backing array when it is large
// enough and otherwise reallocating with capacity max(n, 2×cap): a search
// binds programs of rising sizes, and an exact fit would reallocate on nearly
// every one. Elements kept from the old slice keep their values.
func grow[T any](col []T, n int) []T {
	if cap(col) < n {
		return make([]T, n, max(n, 2*cap(col)))
	}
	return col[:n]
}

// column is grow with every element zeroed.
func column[T any](col []T, n int) []T {
	col = grow(col, n)
	clear(col)
	return col
}

// build flattens prog into the skeleton's SoA columns with the timing
// perturbation (lj, oj, seed) resolved, reusing the columns' storage. It is
// the only place instruction names are hashed, and it never writes to prog.
func (sk *skeleton) build(prog *Program, lj, oj float64, seed uint64) {
	var p *Perturb
	if lj != 0 || oj != 0 {
		p = &Perturb{Seed: seed, LatJitter: lj, OccJitter: oj}
	}
	n, nr := len(prog.Body), prog.NumRegs
	sk.numRegs, sk.bodyLen, sk.elemsPerIter = nr, n, prog.ElemsPerIter
	sk.class = column(sk.class, n)
	sk.lat = column(sk.lat, n)
	sk.occ = column(sk.occ, n)
	sk.uops = column(sk.uops, n)
	sk.lqSlots = column(sk.lqSlots, n)
	sk.lanes = column(sk.lanes, n)
	sk.isStream = column(sk.isStream, n)
	sk.w512 = column(sk.w512, n)
	sk.addr = column(sk.addr, n)
	sk.dst = column(sk.dst, n)
	sk.srcKind = column(sk.srcKind, 3*n)
	sk.srcReg = column(sk.srcReg, 3*n)
	sk.srcMem = column(sk.srcMem, 3*n)
	sk.srcSafe = column(sk.srcSafe, n)
	sk.group = column(sk.group, n)
	sk.groupRep = sk.groupRep[:0]
	sk.lastWriter = grow(sk.lastWriter, nr)
	sk.writtenSoFar = grow(sk.writtenSoFar, nr)
	sk.writerCnt = column(sk.writerCnt, nr)
	for r := 0; r < nr; r++ {
		sk.lastWriter[r], sk.writtenSoFar[r] = -1, -1
	}
	for i := range prog.Body {
		if d := prog.Body[i].Dst; d != NoReg {
			sk.lastWriter[d] = int32(i)
			sk.writerCnt[d]++
		}
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
			sk.lqSlots[i] = int32(max(in.Lanes/2, 1))
		}
		sk.isStream[i] = in.Class == isa.Prefetch && u.Addr.Kind == AddrStride
		sk.w512[i] = in.Width == isa.W512 && in.Class.IsVector()
		sk.addr[i] = u.Addr
		sk.dst[i] = u.Dst
		// A source written earlier in this iteration reads that write;
		// otherwise it reads the previous iteration's last write, or a
		// loop-invariant value when the body never writes it.
		for k, r := range u.Srcs {
			if r == NoReg {
				continue
			}
			j := i*3 + k
			prod := sk.writtenSoFar[r]
			if prod >= 0 {
				sk.srcKind[j] = srcSame
			} else if prod = sk.lastWriter[r]; prod >= 0 {
				sk.srcKind[j] = srcCarried
			} else {
				continue
			}
			sk.srcReg[j] = r
			sk.srcMem[j] = prog.Body[prod].Instr.Class.IsMemory()
		}
		if u.Dst != NoReg {
			sk.writtenSoFar[u.Dst] = int32(i)
		}
	}

	for i := 0; i < n; i++ {
		safe := true
		for j := i * 3; j < i*3+3; j++ {
			if sk.srcKind[j] == srcNone {
				continue
			}
			if r := sk.srcReg[j]; sk.writerCnt[r] != 1 || sk.lat[sk.lastWriter[r]] < 1 {
				safe = false
				break
			}
		}
		sk.srcSafe[i] = safe
		sk.group[i] = sk.groupOf(i)
	}
	sk.prog, sk.lj, sk.oj, sk.seed = prog, lj, oj, seed
}

// groupOf returns the issue group of body µop i, numbering a new group when
// no earlier µop shares its issue test. A body has a handful of groups, so a
// linear search over their first members is cheapest.
func (sk *skeleton) groupOf(i int) int32 {
	for g, r := range sk.groupRep {
		if sk.class[r] == sk.class[i] && sk.w512[r] == sk.w512[i] &&
			sk.isStream[r] == sk.isStream[i] && sk.lqSlots[r] == sk.lqSlots[i] {
			return int32(g)
		}
	}
	sk.groupRep = append(sk.groupRep, int32(i))
	return int32(len(sk.groupRep) - 1)
}

// bind makes the simulator's skeleton describe (prog, perturb) and sizes the
// register slab for its register count and the ready queues for its issue
// groups. The common case — re-running the program bound last time under the
// same timing perturbation — is a pointer comparison: no validation, no
// rebuild, no allocation. Any other bind validates prog, rebuilds the
// skeleton in place, and refuses a program with an issue group this machine
// can never issue or an instruction with more µops than the ROB holds,
// which would otherwise retry forever.
func (s *Sim) bind(prog *Program) error {
	lj, oj, seed := normalizePerturb(s.perturb)
	sk := &s.skel
	if sk.prog != nil && sk.prog == prog && sk.lj == lj && sk.oj == oj && sk.seed == seed {
		skelHits.Add(1)
		return nil
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	skelMisses.Add(1)
	sk.build(prog, lj, oj, seed)
	for _, b := range sk.groupRep {
		if why := s.neverIssues(b); why != "" {
			// Unbind, so that running prog again fails here again.
			sk.prog = nil
			return fmt.Errorf("uarch: program %q body[%d] (%s) can never issue on %s: %s",
				prog.Name, b, prog.Body[b].Instr.Name, s.cpu.Name, why)
		}
	}
	for b, u := range sk.uops {
		if int(u) > s.cpu.ROBSize {
			sk.prog = nil
			return fmt.Errorf("uarch: program %q body[%d] (%s) can never dispatch on %s: its %d µops exceed the %d-entry ROB",
				prog.Name, b, prog.Body[b].Instr.Name, s.cpu.Name, u, s.cpu.ROBSize)
		}
	}
	need := regRingSlots * sk.numRegs
	s.slab = grow(s.slab, need)
	s.watchHead = grow(s.watchHead, need)
	// A group never holds more entries than the scheduler does.
	groups := len(sk.groupRep)
	s.ready = grow(s.ready, groups)
	for g := range s.ready {
		if cap(s.ready[g]) < cap(s.rs) {
			s.ready[g] = make([]int32, 0, cap(s.rs))
		}
	}
	s.heads = grow(s.heads, groups)
	s.blocked = grow(s.blocked, groups)
	return nil
}

// neverIssues explains why body µop b's issue test can never pass on this
// machine — no port accepts it, or it needs more of a queue than exists —
// or returns "" when some state of the machine lets it issue.
func (s *Sim) neverIssues(b int32) string {
	sk, cpu := &s.skel, s.cpu
	class := sk.class[b]
	on512 := sk.w512[b] && class != isa.VecShuffle
	ports := s.classPortMask[class]
	switch {
	case class == isa.GatherOp:
		ports = s.loadPortsMask
	case on512:
		ports = s.vec512Mask
	}
	fills := class == isa.Load || class == isa.GatherOp || class == isa.Prefetch && !sk.isStream[b]
	switch {
	case ports == 0 && on512:
		return "the machine has no 512-bit unit"
	case ports == 0:
		return fmt.Sprintf("no port accepts class %s", class)
	case class == isa.GatherOp && int(sk.lqSlots[b]) > cpu.LoadQueue:
		return fmt.Sprintf("it needs %d load-queue entries and the load queue has %d", sk.lqSlots[b], cpu.LoadQueue)
	case class == isa.Load && cpu.LoadQueue < 1:
		return "the load queue has no entries"
	case class == isa.Store && cpu.StoreQueue < 1:
		return "the store queue has no entries"
	case fills && cpu.LineFillBuffers < 1:
		return "it needs a line-fill buffer and there are none"
	}
	return ""
}
