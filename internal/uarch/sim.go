package uarch

import (
	"fmt"
	"math"
	"math/bits"

	"hef/internal/cache"
	"hef/internal/check"
	"hef/internal/isa"
	"hef/internal/telemetry"
)

const (
	// regRingSlots is the number of iterations whose register instances are
	// tracked concurrently. It exceeds the maximum number of in-flight
	// iterations (bounded by the ROB, 224 µops) with margin.
	regRingSlots = 512
	// regRingMask turns an iteration number into its ring slot (power of 2).
	regRingMask = regRingSlots - 1
	// notIssued marks a register instance whose producer has not issued.
	notIssued = int64(-1)
	// issueInstrCap bounds the instructions issued per cycle (port count).
	issueInstrCap = 8
	// HistBuckets is the size of the µops-per-cycle histogram; bucket i
	// counts cycles in which exactly i µops were issued, with the last
	// bucket collecting "or more".
	HistBuckets = 9
)

// Result is the counter set of one simulation, mirroring what the paper
// collects with perf_event.
type Result struct {
	Name string
	// Cycles is the total core cycles the trace took.
	Cycles uint64
	// Instructions is the number of retired machine instructions.
	Instructions uint64
	// Uops is the number of retired micro-operations.
	Uops uint64
	// IssuedUops is the number of µops sent to execution ports. The
	// simulator has no speculation or replay, so issued == retired at the
	// end of every run (a SelfCheck conservation law); the two counters are
	// accumulated by independent code paths precisely so drift between them
	// is detectable.
	IssuedUops uint64
	// Hist[i] counts cycles with exactly i issued µops (last bucket: >=).
	Hist [HistBuckets]uint64
	// Cache is the hierarchy counter snapshot delta for this run.
	Cache cache.Stats
	// Vec512Uops counts µops executed on 512-bit units.
	Vec512Uops uint64
	// PrefetchUops counts software prefetches.
	PrefetchUops uint64
	// FreqGHz is the effective clock from the license/governor model.
	FreqGHz float64
	// Elems is the number of data elements processed.
	Elems uint64
	// Stalls attributes every cycle top-down: retiring, frontend-bound,
	// backend-port-bound, memory-bound, or dependency-latency-bound.
	// Invariant: Stalls.Total() == Cycles.
	Stalls Stalls
	// PortBusy[i] counts cycles issue port i was occupied.
	PortBusy []uint64
	// ROBOcc and LoadQOcc are per-cycle occupancy histograms of the reorder
	// buffer (in µops) and the load queue (in slots).
	ROBOcc   OccHist
	LoadQOcc OccHist
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Seconds converts cycles to wall time at the effective frequency.
func (r *Result) Seconds() float64 {
	if r.FreqGHz <= 0 {
		return 0
	}
	return float64(r.Cycles) / (r.FreqGHz * 1e9)
}

// CyclesPerElem is the per-element cost, the scale-free quantity used to
// extrapolate sampled runs to full workload sizes.
func (r *Result) CyclesPerElem() float64 {
	if r.Elems == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Elems)
}

// PortUtil returns the utilization of issue port i over the run, in [0, 1].
func (r *Result) PortUtil(i int) float64 {
	if r.Cycles == 0 || i < 0 || i >= len(r.PortBusy) {
		return 0
	}
	return float64(r.PortBusy[i]) / float64(r.Cycles)
}

// Add accumulates another result into r (used when a query pipeline is the
// concatenation of per-stage traces). Histograms and cache stats add;
// frequency is recomputed by the caller.
func (r *Result) Add(o *Result) {
	r.Cycles += o.Cycles
	r.Instructions += o.Instructions
	r.Uops += o.Uops
	r.IssuedUops += o.IssuedUops
	for i := range r.Hist {
		r.Hist[i] += o.Hist[i]
	}
	r.Cache.L1Hits += o.Cache.L1Hits
	r.Cache.L1Misses += o.Cache.L1Misses
	r.Cache.L2Hits += o.Cache.L2Hits
	r.Cache.L2Misses += o.Cache.L2Misses
	r.Cache.LLCHits += o.Cache.LLCHits
	r.Cache.LLCMisses += o.Cache.LLCMisses
	r.Cache.MemAccesses += o.Cache.MemAccesses
	r.Cache.PrefetchFills += o.Cache.PrefetchFills
	r.Cache.HWPrefetchFills += o.Cache.HWPrefetchFills
	r.Cache.HWPrefetchMem += o.Cache.HWPrefetchMem
	r.Cache.SWPrefetchMem += o.Cache.SWPrefetchMem
	r.Vec512Uops += o.Vec512Uops
	r.PrefetchUops += o.PrefetchUops
	r.Elems += o.Elems
	r.Stalls.addStalls(&o.Stalls)
	if len(o.PortBusy) > len(r.PortBusy) {
		pb := make([]uint64, len(o.PortBusy))
		copy(pb, r.PortBusy)
		r.PortBusy = pb
	}
	for i := range o.PortBusy {
		r.PortBusy[i] += o.PortBusy[i]
	}
	r.ROBOcc.addHist(&o.ROBOcc)
	r.LoadQOcc.addHist(&o.LoadQOcc)
}

// Clone returns an independent deep copy of r. Callers that cache results
// (the evaluation memo) hand out clones so that Add/Scale on one consumer
// cannot corrupt another's counters.
func (r *Result) Clone() *Result {
	c := *r
	c.PortBusy = append([]uint64(nil), r.PortBusy...)
	return &c
}

// Scale multiplies all extensive counters by f, used to extrapolate a
// sampled batch to the nominal workload size.
func (r *Result) Scale(f float64) {
	r.Cycles = uint64(float64(r.Cycles) * f)
	r.Instructions = uint64(float64(r.Instructions) * f)
	r.Uops = uint64(float64(r.Uops) * f)
	r.IssuedUops = uint64(float64(r.IssuedUops) * f)
	for i := range r.Hist {
		r.Hist[i] = uint64(float64(r.Hist[i]) * f)
	}
	r.Cache.LLCMisses = uint64(float64(r.Cache.LLCMisses) * f)
	r.Cache.LLCHits = uint64(float64(r.Cache.LLCHits) * f)
	r.Cache.L2Misses = uint64(float64(r.Cache.L2Misses) * f)
	r.Cache.L2Hits = uint64(float64(r.Cache.L2Hits) * f)
	r.Cache.L1Misses = uint64(float64(r.Cache.L1Misses) * f)
	r.Cache.L1Hits = uint64(float64(r.Cache.L1Hits) * f)
	r.Cache.MemAccesses = uint64(float64(r.Cache.MemAccesses) * f)
	r.Cache.PrefetchFills = uint64(float64(r.Cache.PrefetchFills) * f)
	r.Cache.HWPrefetchFills = uint64(float64(r.Cache.HWPrefetchFills) * f)
	r.Cache.HWPrefetchMem = uint64(float64(r.Cache.HWPrefetchMem) * f)
	r.Cache.SWPrefetchMem = uint64(float64(r.Cache.SWPrefetchMem) * f)
	r.Vec512Uops = uint64(float64(r.Vec512Uops) * f)
	r.PrefetchUops = uint64(float64(r.PrefetchUops) * f)
	r.Elems = uint64(float64(r.Elems) * f)
	r.Stalls.scale(f, r.Cycles)
	for i := range r.PortBusy {
		r.PortBusy[i] = uint64(float64(r.PortBusy[i]) * f)
	}
	r.ROBOcc.scale(f)
	r.LoadQOcc.scale(f)
}

// minHeap is a small binary min-heap of completion cycles, or of the packed
// (ready cycle, ROB index) keys of the maturation queue (readyKey). The
// calendar wheels (wheel.go) keep one for events beyond their horizon.
type minHeap []int64

func (h *minHeap) push(v int64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *minHeap) pop() int64 {
	old := *h
	v := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h)[l] < (*h)[m] {
			m = l
		}
		if r < n && (*h)[r] < (*h)[m] {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return v
}

// drain removes all heap entries <= cycle.
func (h *minHeap) drain(cycle int64) {
	for len(*h) > 0 && (*h)[0] <= cycle {
		h.pop()
	}
}

// robBits is the width of the ROB-index field of a maturation key,
// (ready cycle << robBits) | ROB index: a ROB ring of up to 1<<robBits
// entries (ROBSize+8) fits, and NewSim refuses a CPU model whose ring does
// not. Ready cycles keep the other 53 bits. Keys order by ready cycle first;
// among entries ready in the same cycle the index order is irrelevant,
// because insertReady places each matured entry by age.
const (
	robBits = 10
	robMask = 1<<robBits - 1
)

// readyKey packs ROB entry ei, data-ready at cycle at, into a maturation key.
func readyKey(at int64, ei int32) int64 { return at<<robBits | int64(ei) }

// groupHead is a scan's cursor into one issue group's ready queue: the
// group, how many of the queue's entries the scan issued (issues within a
// group are always a prefix of its queue), and the age of the next one.
type groupHead struct {
	g, n int32
	seq  int64
}

// Sim runs programs on one CPU model, reusing internal buffers across runs.
//
// The in-flight state is structure-of-arrays: the reorder buffer is a set of
// parallel arrays indexed by ring position, and register readiness lives in
// one flat completion slab of regRingSlots × NumRegs cells. At dispatch each
// entry's operand cells are resolved to slab offsets (robSrc/robDst), so the
// per-cycle readiness check is a handful of indexed loads with no pointer
// chasing through the program structure. Every arena is sized at
// construction or bind time, so a warm Sim runs with zero allocations.
type Sim struct {
	cpu  *isa.CPU
	hier *cache.Hierarchy

	// The clock and dispatch front of the current Run: the cycle being
	// simulated, the iteration and body position dispatch enters next, the
	// run's iteration count, and whether every iteration has dispatched.
	// idleSkipped counts the cycles the idle-skip stage jumped over.
	cycle        int64
	dispatchIter int64
	dispatchIdx  int
	iters        int64
	traceDone    bool
	idleSkipped  int64

	// Reorder buffer, SoA, ring-indexed by robHead/robTail.
	robBody       []int32
	robIter       []int64
	robCompletion []int64
	robIssued     []bool
	// robSrc[3*i ... 3*i+robSrcCnt[i]) are the slab offsets entry i's
	// tracked operands read; always-ready operands (none, loop-invariant,
	// iteration 0's loop-carried reads) are omitted at dispatch. robDst[i]
	// is the slab offset the entry writes its completion to, or -1.
	robSrc    []int32
	robSrcCnt []uint8
	robDst    []int32

	robHead   int
	robTail   int
	robCount  int
	uopsInROB int

	// rsCount is the number of dispatched-but-unissued entries (the
	// scheduler occupancy). They wait in one of two ways, chosen per body
	// µop by skeleton.srcSafe.
	rsCount int

	// rs holds, in age order, the waiting entries of µops whose operands
	// can be rewritten while they wait (accumulator chains redefine their
	// register every unrolled pack): a scan re-samples their operand cells.
	rs []int32

	// Every other waiting entry is event-tracked. Once its operands are all
	// resolved it has a final data-ready cycle (a sampled single-writer
	// producer completion can never change): it waits in the maturation
	// queue mature, a calendar wheel filed by ready cycle (wheel.go), until
	// that cycle arrives, then moves to the ready queue of its issue group
	// (skeleton.group), which holds the group's data-ready entries in age
	// order; readyCount is their total. Entries with unissued
	// producers are parked on per-cell watcher lists: watchHead[cell] heads a
	// list threaded through watchNext (node n watches the cell robSrc[n]
	// names; n/3 is its ROB entry), and the producer's issue walks the list,
	// folds its completion into each watcher's readyAt, and moves watchers
	// whose last operand just resolved (waitCnt reaches zero) into mature.
	ready      [][]int32
	readyCount int
	mature     readyWheel
	waitCnt    []uint8
	readyAt    []int64
	watchHead  []int32
	watchNext  []int32
	// heads and blocked are scan scratch, one slot per issue group: the
	// cursors of the non-empty ready queues, and which groups failed an
	// issue test this scan.
	heads   []groupHead
	blocked []bool

	// slab is the register completion ring: cell (iter&regRingMask)*numRegs
	// + reg holds the completion cycle of that register instance, or
	// notIssued.
	slab []int64

	// rsNextReady is a lower bound on the next cycle at which any scheduler
	// entry could issue. Slab cells, port horizons, and memory queues change
	// only when an entry issues — which happens only inside a scan — so
	// after a scan that issued nothing the earliest data-ready/resource-free
	// time sampled during the scan stays exact until the next issue, and
	// whole scans below the bound are skipped. Every issue re-arms the bound
	// to cycle+1; dispatch lowers it with each new entry's own readiness
	// bound (entries with an unissued producer are excluded: they cannot
	// issue before a scan that issues the producer, which re-arms).
	rsNextReady int64
	// retryAt is set by a failed tryIssue to the earliest cycle the failing
	// conditions could clear (exact while no issue occurs, since all
	// resources are frozen between issues).
	retryAt int64
	// portMask is scan scratch: bit p set iff port p is free (and unfaulted)
	// at the scanned cycle; claims clear bits as the scan proceeds.
	portMask uint32

	portFree []int64

	// The memory queues and the in-flight set hold completion cycles on
	// calendar wheels (wheel.go): 512 one-cycle slots ahead of the last
	// drained cycle, a heap fallback beyond that horizon, and a cached
	// minimum, so complete's drains cost one compare in a cycle where
	// nothing finishes. A queue slot is freed, and an in-flight result
	// stops counting, at the first cycle whose drain reaches its entry.
	loadQ, storeQ eventWheel
	lfb           eventWheel
	inflight      eventWheel

	// Per-CPU issue tables, built once in NewSim: classPorts[c] lists the
	// ports accepting class c in ascending order (the same order the
	// previous per-port scans visited them); loadPortsList is classPorts for
	// loads, claimed wholesale by gathers. robOccLUT/loadQOccLUT map an
	// occupancy to its histogram bucket, replacing a per-cycle division.
	classPorts    [][]int8
	loadPortsList []int8
	// classPortMask[c]/loadPortsMask/vec512Mask are the same port sets as
	// bitmasks; the lowest set bit of classPortMask[c]&portMask is the same
	// port an ascending scan would pick.
	classPortMask []uint32
	loadPortsMask uint32
	vec512Mask    uint32
	robOccLUT     []uint8
	loadQOccLUT   []uint8

	// skel is the schedule skeleton of the program bound by the last Run
	// (see skeleton.go), rebuilt in place when a Run binds another.
	skel skeleton

	// trace is the optional lifecycle recorder (SetTracer).
	trace *telemetry.Tracer
	// lastPort and lastLevel communicate the issue port and cache fill level
	// chosen by the most recent successful tryIssue to the trace hooks.
	lastPort  int8
	lastLevel int8

	// perturb, when non-nil, is the fault-injection model (SetPerturb).
	perturb *Perturb
	// modelErr records a machine model NewSim cannot simulate (an invalid
	// cache geometry, a ROB beyond the simulator's limit, a machine that
	// can never dispatch); NewSim keeps its infallible signature and Run
	// surfaces the error instead.
	modelErr error

	// steady is the fast path: core-only period detection (steady.go) and
	// response-verified replay of the recorded period (replay.go). Its
	// scratch buffers persist across runs so hot sweep loops stay
	// allocation-free. fastOff disables it (SetFastPath).
	steady  steadyState
	fastOff bool
}

// NewSim builds a simulator for a CPU with a fresh cache hierarchy. A
// model it cannot simulate — an invalid cache geometry, or a ROB,
// scheduler or decoder that could never dispatch anything — does not fail
// here: the error is deferred and returned by every Run (and exposed by
// Err), so call sites that construct simulators for the built-in CPU
// models stay non-fallible.
func NewSim(cpu *isa.CPU) *Sim {
	hier, err := cache.New(cpu)
	if err != nil {
		return &Sim{cpu: cpu, modelErr: fmt.Errorf("uarch: building cache hierarchy: %w", err)}
	}
	robCap := cpu.ROBSize + 8
	switch {
	case robCap > 1<<robBits:
		err = fmt.Errorf("uarch: a ROB of %d µops exceeds the simulator's limit of %d", cpu.ROBSize, 1<<robBits-8)
	case cpu.RSSize < 1:
		err = fmt.Errorf("uarch: %s has %d scheduler entries; dispatch needs at least one", cpu.Name, cpu.RSSize)
	case cpu.DecodeWidth < 1:
		err = fmt.Errorf("uarch: %s decodes %d µops per cycle; dispatch needs at least one", cpu.Name, cpu.DecodeWidth)
	}
	if err != nil {
		return &Sim{cpu: cpu, modelErr: err}
	}
	s := &Sim{cpu: cpu, hier: hier}
	s.robBody = make([]int32, robCap)
	s.robIter = make([]int64, robCap)
	s.robCompletion = make([]int64, robCap)
	s.robIssued = make([]bool, robCap)
	s.robSrc = make([]int32, 3*robCap)
	s.robSrcCnt = make([]uint8, robCap)
	s.robDst = make([]int32, robCap)
	s.rs = make([]int32, 0, cpu.RSSize)
	s.portFree = make([]int64, len(cpu.Ports))

	numClasses := len(isa.Port{}.Accepts)
	s.classPorts = make([][]int8, numClasses)
	s.classPortMask = make([]uint32, numClasses)
	for c := 0; c < numClasses; c++ {
		for i := range cpu.Ports {
			if cpu.Ports[i].CanRun(isa.Class(c)) {
				s.classPorts[c] = append(s.classPorts[c], int8(i))
				s.classPortMask[c] |= 1 << i
			}
		}
	}
	s.loadPortsList = s.classPorts[isa.Load]
	s.loadPortsMask = s.classPortMask[isa.Load]
	for _, p := range cpu.Vec512Ports {
		s.vec512Mask |= 1 << p
	}
	s.robOccLUT = occLUT(cpu.ROBSize)
	s.loadQOccLUT = occLUT(cpu.LoadQueue)

	s.waitCnt = make([]uint8, robCap)
	s.readyAt = make([]int64, robCap)
	s.watchNext = make([]int32, 3*robCap)
	s.mature = newReadyWheel(robCap)
	return s
}

// seq is ROB entry ei's age: its position in the dynamic instruction stream.
func (s *Sim) seq(ei int32) int64 {
	return s.robIter[ei]*int64(s.skel.bodyLen) + int64(s.robBody[ei])
}

// insertReady places a matured entry at its age position in its issue
// group's ready queue, so the scan meets each group's data-ready entries in
// exactly the order the exhaustive age-ordered scan would attempt them.
func (s *Sim) insertReady(ei int32) {
	g := s.skel.group[s.robBody[ei]]
	seq := s.seq(ei)
	q := s.ready[g]
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.seq(q[mid]) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = ei
	s.ready[g] = q
	s.readyCount++
}

// occLUT precomputes OccHist.Record's bucket for every occupancy 0..cap.
func occLUT(capacity int) []uint8 {
	if capacity <= 0 {
		return nil
	}
	lut := make([]uint8, capacity+1)
	for occ := 0; occ <= capacity; occ++ {
		b := occ * OccBuckets / capacity
		if b >= OccBuckets {
			b = OccBuckets - 1
		}
		lut[occ] = uint8(b)
	}
	return lut
}

// Err reports a deferred construction error (a CPU model NewSim cannot
// simulate). When non-nil, Hierarchy returns nil and Run fails.
func (s *Sim) Err() error { return s.modelErr }

// Hierarchy exposes the cache hierarchy (for warming working sets). It is
// nil when Err is non-nil.
func (s *Sim) Hierarchy() *cache.Hierarchy { return s.hier }

// SetPerturb installs (or, with nil, removes) a fault-injection model that
// jitters instruction latency/occupancy and injects transient
// port-unavailable cycles on every subsequent Run. Cache-latency and
// frequency-license jitter act through the CPU model instead: see
// Perturb.CPU.
func (s *Sim) SetPerturb(p *Perturb) { s.perturb = p }

// CPU returns the machine model.
func (s *Sim) CPU() *isa.CPU { return s.cpu }

// Run executes iters iterations of prog's loop body and returns the counter
// set. The cache hierarchy retains its contents across calls (reset it
// explicitly for a cold run); counters are deltas for this call.
func (s *Sim) Run(prog *Program, iters int64) (*Result, error) {
	res := &Result{}
	if err := s.RunInto(res, prog, iters); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run with caller-owned result storage: res is fully overwritten
// (its PortBusy backing array is reused when large enough), so hot sweep
// loops can run without per-call allocations.
//
// Every simulated cycle runs the same stages in order: complete, the
// steady-state boundary (period detection and replay, steady.go), retire,
// issue, dispatch and account. A cycle in which nothing retired, issued or
// dispatched ends in the idle-skip stage, which jumps to the next cycle at
// which anything can happen and charges the skipped cycles through the same
// account.
func (s *Sim) RunInto(res *Result, prog *Program, iters int64) error {
	if s.modelErr != nil {
		return s.modelErr
	}
	if iters <= 0 {
		return fmt.Errorf("uarch: iters must be positive, got %d", iters)
	}
	if err := s.bind(prog); err != nil {
		return err
	}
	s.reset(res, iters)
	statsBefore := s.hier.Stats()
	s.steady.begin(s)

	for !s.traceDone || s.robCount > 0 {
		s.complete()
		// The boundary runs at the first cycle that observes each new
		// dispatch iteration, after the drains, so every queued completion
		// is in the future.
		if s.steady.active && !s.traceDone && s.dispatchIter > s.steady.lastIter {
			s.steady.observe(s, res)
		}
		retired := s.retire(res)
		// Top-down attribution: a cycle that retired µops is retiring; a
		// non-retiring cycle is charged to whatever blocks the oldest
		// in-flight instruction after retirement and before issue.
		stall := stallRetiring
		if retired == 0 {
			stall = s.classifyStall()
		}
		issued := s.issue(res)
		dispatched := s.dispatch()
		s.account(res, stall, s.cycle, 1)
		if retired == 0 && issued == 0 && dispatched == 0 && s.idleSkip(res, stall) {
			continue
		}
		s.cycle++
	}

	res.Cycles = uint64(s.cycle)
	res.Elems = uint64(iters) * uint64(s.skel.elemsPerIter)
	res.Cache = statsDelta(s.hier.Stats(), statsBefore)
	res.FreqGHz = EffectiveFreq(s.cpu, prog, res)
	recordTotals(res, s.steady.skippedCycles, s.idleSkipped)

	if check.Enabled() {
		if err := s.steady.invariantErr; err != nil {
			return err
		}
		if err := res.SelfCheck(); err != nil {
			return err
		}
		if want := uint64(iters) * uint64(s.skel.bodyLen); res.Instructions != want {
			return fmt.Errorf("uarch: selfcheck %q: retired %d instructions, want iters*body = %d", prog.Name, res.Instructions, want)
		}
	}
	return nil
}

// complete frees the memory-queue slots and in-flight results whose
// operations finished by this cycle.
func (s *Sim) complete() {
	s.loadQ.drain(s.cycle)
	s.storeQ.drain(s.cycle)
	s.lfb.drain(s.cycle)
	s.inflight.drain(s.cycle)
}

// retire removes completed instructions from the ROB head in order and
// returns the µops retired this cycle.
func (s *Sim) retire(res *Result) int {
	sk := &s.skel
	retired := 0
	for s.robCount > 0 {
		h := s.robHead
		if !s.robIssued[h] || s.robCompletion[h] > s.cycle {
			break
		}
		b := s.robBody[h]
		uops := int(sk.uops[b])
		// Instructions wider than the retire bandwidth (e.g. gathers)
		// retire alone; otherwise respect the per-cycle budget.
		if retired > 0 && retired+uops > s.cpu.RetireWidth {
			break
		}
		retired += uops
		res.Instructions++
		res.Uops += uint64(uops)
		if s.trace != nil {
			s.traceStage("retire", s.cycle, s.robIter[h], b, sk.prog.Body[b].Instr.Name)
		}
		s.uopsInROB -= uops
		h++
		if h == len(s.robBody) {
			h = 0
		}
		s.robHead = h
		s.robCount--
	}
	return retired
}

// issue is the scheduler stage: it moves event-tracked entries whose
// data-ready cycle has arrived into their groups' ready queues, scans the
// issuable entries in age order, and records the cycle's issue width. It
// returns the instructions issued. A scan below rsNextReady is provably
// fruitless (no slab cell or resource changed since the bound was sampled)
// and is skipped; the cycle still counts as an ordinary zero-issue cycle.
func (s *Sim) issue(res *Result) int {
	uops, instrs := 0, 0
	if s.cycle >= s.rsNextReady && (len(s.rs) > 0 || s.mature.n > 0 || s.readyCount > 0) {
		for ei, ok := s.mature.pop(s.cycle); ok; ei, ok = s.mature.pop(s.cycle) {
			s.insertReady(ei)
		}
		if len(s.rs) == 0 && s.readyCount == 0 {
			// Every waiting entry is event-tracked with a future ready
			// cycle: the queue's earliest (non-empty here) is the exact next.
			s.rsNextReady = s.mature.nextReady()
		} else {
			uops, instrs = s.scan(res)
		}
	}
	res.IssuedUops += uint64(uops)
	res.Hist[min(uops, HistBuckets-1)]++
	return instrs
}

// scan merge-walks rs and the heads of the issue groups' ready queues in age
// order, issuing exactly what one exhaustive age-ordered scan over all
// waiting entries would (event-tracked entries that are not yet data-ready
// are provably unissuable this cycle and need no visit). It returns the µops
// and instructions issued and re-arms the scan-skip bound.
//
// A head that fails its issue test drops its whole group for the rest of
// the scan, and rs entries of a dropped group skip their attempt. That is
// exact: a group's members read the same resources, which only shrink
// within a scan, so every younger member would fail too. The group's
// retry bounds are only read when nothing issued, and then they all equal
// the head's.
func (s *Sim) scan(res *Result) (uops, instrs int) {
	cycle := s.cycle
	// Snapshot port availability once; claims clear bits as the scan
	// proceeds, and the lowest set bit of a class's masked ports is exactly
	// the port an ascending scan would pick.
	pm := uint32(0)
	for i, f := range s.portFree {
		if f <= cycle {
			pm |= 1 << i
		}
	}
	if s.perturb != nil && s.perturb.PortFaultRate > 0 {
		for m := pm; m != 0; m &= m - 1 {
			p := bits.TrailingZeros32(m)
			if s.perturb.PortFault(p, cycle) {
				pm &^= 1 << p
			}
		}
	}
	s.portMask = pm

	minNext := int64(math.MaxInt64)
	if s.mature.n > 0 {
		minNext = s.mature.nextReady()
	}
	clear(s.blocked)
	heads := s.heads[:0]
	for g, q := range s.ready {
		if len(q) > 0 {
			heads = append(heads, groupHead{g: int32(g), seq: s.seq(q[0])})
		}
	}
	h, hSeq := oldestHead(heads)
	rs := s.rs
	ai, wa := 0, 0
	aSeq := int64(math.MaxInt64)
	if len(rs) > 0 {
		aSeq = s.seq(rs[0])
	}
	for instrs < issueInstrCap && (aSeq < hSeq || h >= 0) {
		var ei int32
		fromRS := aSeq < hSeq
		if fromRS {
			ei = rs[ai]
			ai++
			aSeq = math.MaxInt64
			if ai < len(rs) {
				aSeq = s.seq(rs[ai])
			}
			// Live-sample this entry's operand cells: its watched registers
			// can be rewritten (accumulator redefinitions), so only current
			// values decide.
			ready, resolved := s.operandsReady(ei)
			if resolved && ready > cycle {
				// Data-ready at a known future cycle: a candidate for the
				// scan-skip bound.
				minNext = min(minNext, ready)
			}
			if !resolved || ready > cycle || s.blocked[s.skel.group[s.robBody[ei]]] {
				rs[wa] = ei
				wa++
				continue
			}
		} else {
			ei = s.ready[heads[h].g][heads[h].n]
		}
		b := s.robBody[ei]
		lat, ok := s.tryIssue(ei, b, cycle)
		if !ok {
			// Blocked on execution resources: retryAt is the earliest the
			// failing conditions clear, for every member of the group.
			minNext = min(minNext, s.retryAt)
			g := s.skel.group[b]
			s.blocked[g] = true
			if fromRS {
				rs[wa] = ei
				wa++
			}
			for i := range heads {
				if heads[i].g == g {
					heads = s.dropHead(heads, i)
					h, hSeq = oldestHead(heads)
					break
				}
			}
			continue
		}
		s.commit(res, ei, b, lat)
		uops += int(s.skel.uops[b])
		instrs++
		if !fromRS {
			c := &heads[h]
			c.n++
			if q := s.ready[c.g]; int(c.n) < len(q) {
				c.seq = s.seq(q[c.n])
			} else {
				heads = s.dropHead(heads, h)
			}
			h, hSeq = oldestHead(heads)
		}
	}
	s.rs = rs[:wa+copy(rs[wa:], rs[ai:])]
	for _, c := range heads {
		s.popIssued(c)
	}
	if instrs > 0 || minNext == math.MaxInt64 {
		// An issue rewrote the slab and resource horizons, so the sampled
		// bound is void (and the MaxInt64 case, a scan that sampled no
		// bound at all, is a defensive clamp).
		s.rsNextReady = cycle + 1
	} else {
		s.rsNextReady = minNext
	}
	return uops, instrs
}

// oldestHead returns the index of the cursor whose next entry is oldest, and
// that entry's age; -1 and MaxInt64 when there is no cursor left.
func oldestHead(heads []groupHead) (int, int64) {
	h, seq := -1, int64(math.MaxInt64)
	for i := range heads {
		if heads[i].seq < seq {
			h, seq = i, heads[i].seq
		}
	}
	return h, seq
}

// dropHead ends the scan of cursor i's group (it is exhausted or blocked):
// the entries it issued leave the queue and the cursor leaves heads.
func (s *Sim) dropHead(heads []groupHead, i int) []groupHead {
	s.popIssued(heads[i])
	last := len(heads) - 1
	heads[i] = heads[last]
	return heads[:last]
}

// popIssued removes the prefix of cursor c's ready queue that the scan
// issued.
func (s *Sim) popIssued(c groupHead) {
	if c.n > 0 {
		q := s.ready[c.g]
		s.ready[c.g] = q[:copy(q, q[c.n:])]
		s.readyCount -= int(c.n)
	}
}

// operandsReady samples ROB entry ei's operand cells: the cycle its last
// operand is ready, or resolved=false while a producer has not issued.
func (s *Sim) operandsReady(ei int32) (ready int64, resolved bool) {
	so := int(ei) * 3
	for k := 0; k < int(s.robSrcCnt[ei]); k++ {
		v := s.slab[s.robSrc[so+k]]
		if v == notIssued {
			return 0, false
		}
		ready = max(ready, v)
	}
	return ready, true
}

// commit records the issue of ROB entry ei (body µop b) with result latency
// lat: its completion lands in its register cell, wakes the consumers parked
// on that cell, and joins the in-flight set.
func (s *Sim) commit(res *Result, ei, b int32, lat int) {
	sk := &s.skel
	comp := s.cycle + int64(lat)
	s.robIssued[ei] = true
	s.robCompletion[ei] = comp
	s.rsCount--
	if o := s.robDst[ei]; o >= 0 {
		s.slab[o] = comp
		for node := s.watchHead[o]; node >= 0; node = s.watchNext[node] {
			we := node / 3
			s.readyAt[we] = max(s.readyAt[we], comp)
			s.waitCnt[we]--
			if s.waitCnt[we] == 0 {
				s.mature.push(s.readyAt[we], we, s.cycle)
			}
		}
		s.watchHead[o] = -1
	}
	s.inflight.push(comp)
	if s.trace != nil {
		s.traceIssue(s.cycle, int64(lat), s.robIter[ei], b, sk.prog.Body[b].Instr.Name)
	}
	if sk.w512[b] {
		res.Vec512Uops += uint64(sk.uops[b])
	}
	if sk.class[b] == isa.Prefetch {
		res.PrefetchUops++
	}
}

// dispatch enters up to DecodeWidth µops at the dispatch front into the ROB
// and the scheduler, resolving each entry's operand cells to slab offsets as
// it enters, and returns the instructions dispatched.
func (s *Sim) dispatch() int {
	sk := &s.skel
	nr := sk.numRegs
	dispatched := 0
	for budget := s.cpu.DecodeWidth; !s.traceDone && budget > 0; {
		b, iter := s.dispatchIdx, s.dispatchIter
		uops := int(sk.uops[b])
		if s.uopsInROB+uops > s.cpu.ROBSize || s.rsCount >= s.cpu.RSSize || s.robCount >= len(s.robBody) {
			break
		}
		slot := int(iter&regRingMask) * nr
		if b == 0 {
			// The iteration takes over its ring slot. The slot's watcher
			// lists are dead along with its cells (any live watcher's
			// producer issued long before the ring wrapped around to it).
			for i := slot; i < slot+nr; i++ {
				s.slab[i] = notIssued
				s.watchHead[i] = -1
			}
		}
		t := s.robTail
		s.robBody[t] = int32(b)
		s.robIter[t] = iter
		s.robIssued[t] = false
		s.robDst[t] = -1
		if d := sk.dst[b]; d != NoReg {
			s.robDst[t] = int32(slot + int(d))
		}
		so := t * 3
		nsrc, waiting := 0, 0
		safe := sk.srcSafe[b]
		var srcBound int64
		for k := 0; k < 3; k++ {
			o := sk.srcCell(b, k, iter)
			if o < 0 {
				continue
			}
			s.robSrc[so+nsrc] = int32(o)
			if v := s.slab[o]; v == notIssued {
				if safe {
					// Park this operand on the producer cell's watcher
					// list; the producer's issue resolves it.
					node := int32(so + nsrc)
					s.watchNext[node] = s.watchHead[o]
					s.watchHead[o] = node
				}
				waiting++
			} else {
				srcBound = max(srcBound, v)
			}
			nsrc++
		}
		s.robSrcCnt[t] = uint8(nsrc)
		if safe {
			s.waitCnt[t] = uint8(waiting)
			s.readyAt[t] = srcBound
			if waiting == 0 {
				s.mature.push(srcBound, int32(t), s.cycle)
			}
		} else {
			s.rs = append(s.rs, int32(t))
		}
		// Fold the new entry into the scan-skip bound: an entry with an
		// unissued producer cannot issue before a scan that issues the
		// producer (which re-arms the bound), so only resolved entries lower
		// it. Sampled values stay exact until the next issue.
		if waiting == 0 {
			s.rsNextReady = min(s.rsNextReady, max(srcBound, s.cycle+1))
		}
		s.rsCount++
		if s.trace != nil {
			s.traceStage("dispatch", s.cycle, iter, int32(b), sk.prog.Body[b].Instr.Name)
		}
		t++
		if t == len(s.robBody) {
			t = 0
		}
		s.robTail = t
		s.robCount++
		s.uopsInROB += uops
		budget -= uops
		dispatched++
		s.dispatchIdx++
		if s.dispatchIdx == sk.bodyLen {
			s.dispatchIdx = 0
			s.dispatchIter++
			s.traceDone = s.dispatchIter == s.iters
		}
	}
	return dispatched
}

// account charges n cycles starting at cycle from to stall and to the
// current ROB and load-queue occupancies, and each port's busy count with
// the part of those cycles it stays occupied: clamp(portFree-from, 0, n).
// A stepped cycle (n = 1) and the cycles the idle-skip stage jumps over both
// go through it, so the two are charged by one rule.
func (s *Sim) account(res *Result, stall stallKind, from int64, n uint64) {
	res.Stalls.add(stall, n)
	if s.robOccLUT != nil {
		res.ROBOcc.Buckets[s.robOccLUT[s.uopsInROB]] += n
	}
	if s.loadQOccLUT != nil {
		res.LoadQOcc.Buckets[s.loadQOccLUT[s.loadQ.len()]] += n
	}
	for i, f := range s.portFree {
		if b := f - from; b > 0 {
			res.PortBusy[i] += min(uint64(b), n)
		}
	}
}

// idleSkip fast-forwards a cycle in which nothing retired, issued or
// dispatched to the next cycle at which progress can occur. The skipped
// cycles stall for the same reason and at the same occupancies as the
// current one, issue nothing, and are charged by account. It reports
// whether it skipped any cycle.
func (s *Sim) idleSkip(res *Result, stall stallKind) bool {
	next := s.nextEvent(s.cycle)
	if next <= s.cycle+1 {
		return false
	}
	n := uint64(next - s.cycle - 1)
	s.idleSkipped += int64(n)
	res.Hist[0] += n
	s.account(res, stall, s.cycle+1, n)
	s.cycle = next
	return true
}

func statsDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		L1Hits: a.L1Hits - b.L1Hits, L1Misses: a.L1Misses - b.L1Misses,
		L2Hits: a.L2Hits - b.L2Hits, L2Misses: a.L2Misses - b.L2Misses,
		LLCHits: a.LLCHits - b.LLCHits, LLCMisses: a.LLCMisses - b.LLCMisses,
		MemAccesses:     a.MemAccesses - b.MemAccesses,
		PrefetchFills:   a.PrefetchFills - b.PrefetchFills,
		HWPrefetchFills: a.HWPrefetchFills - b.HWPrefetchFills,
		HWPrefetchMem:   a.HWPrefetchMem - b.HWPrefetchMem,
		SWPrefetchMem:   a.SWPrefetchMem - b.SWPrefetchMem,
	}
}

// reset rewinds the pipeline, the clock and the dispatch front for a run of
// iters iterations of the bound program, and overwrites res, reusing its
// PortBusy storage. The slab is not cleared: each iteration's cells are
// reset when it dispatches, before any read.
func (s *Sim) reset(res *Result, iters int64) {
	s.cycle, s.dispatchIter, s.dispatchIdx, s.iters, s.traceDone = 0, 0, 0, iters, false
	s.idleSkipped = 0
	s.robHead, s.robTail, s.robCount, s.uopsInROB = 0, 0, 0, 0
	s.rs = s.rs[:0]
	s.rsCount = 0
	for g := range s.ready {
		s.ready[g] = s.ready[g][:0]
	}
	s.readyCount = 0
	s.mature.reset()
	clear(s.portFree)
	s.loadQ.reset()
	s.storeQ.reset()
	s.lfb.reset()
	s.inflight.reset()
	s.rsNextReady = 0

	pb := res.PortBusy
	*res = Result{Name: s.skel.prog.Name}
	res.PortBusy = column(pb, len(s.cpu.Ports))
	res.ROBOcc.Cap = s.cpu.ROBSize
	res.LoadQOcc.Cap = s.cpu.LoadQueue
}

// tryIssue attempts to claim execution resources for ROB entry ei (body µop
// b) at cycle; on success it returns the total result latency (including
// cache effects). On failure it sets retryAt to the earliest cycle the
// failing conditions could clear — exact while nothing issues, since ports
// and queues only change at issues and at their own already-known horizons.
func (s *Sim) tryIssue(ei, b int32, cycle int64) (latency int, ok bool) {
	sk := &s.skel
	baseLat := int(sk.lat[b])
	occ := int64(sk.occ[b])
	s.lastPort, s.lastLevel = -1, 0
	switch sk.class[b] {
	case isa.Load:
		if s.loadQ.len() >= s.cpu.LoadQueue || s.lfb.len() >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if s.loadQ.len() >= s.cpu.LoadQueue && s.loadQ.head() > t {
				t = s.loadQ.head()
			}
			if s.lfb.len() >= s.cpu.LineFillBuffers && s.lfb.head() > t {
				t = s.lfb.head()
			}
			s.retryAt = t
			return 0, false
		}
		port, found := s.freePort(isa.Load, cycle)
		if !found {
			return 0, false
		}
		a := &sk.addr[b]
		addr := a.address(s.robIter[ei], int(a.LaneSel), sk.elemsPerIter)
		extra, lvl := s.cacheExtra(addr)
		if s.steady.recording {
			s.steady.record(b, s.robIter[ei], int(a.LaneSel), extra)
		}
		lat := baseLat + extra
		s.lastPort, s.lastLevel = int8(port), int8(lvl)
		s.claimPort(port, cycle, occ)
		s.loadQ.push(cycle + int64(lat))
		if extra > 0 {
			s.lfb.push(cycle + int64(lat))
		}
		return lat, true

	case isa.GatherOp:
		// A gather's lane loads coalesce into roughly lanes/2 load-buffer
		// entries (line-combining in the fill buffers) and keep both load
		// ports busy for the occupancy window.
		lqSlots := int(sk.lqSlots[b])
		if s.loadQ.len()+lqSlots > s.cpu.LoadQueue || s.lfb.len() >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if s.loadQ.len()+lqSlots > s.cpu.LoadQueue && s.loadQ.head() > t {
				t = s.loadQ.head()
			}
			if s.lfb.len() >= s.cpu.LineFillBuffers && s.lfb.head() > t {
				t = s.lfb.head()
			}
			s.retryAt = t
			return 0, false
		}
		if s.portMask&s.loadPortsMask != s.loadPortsMask {
			// All load ports (bind guarantees there is one) must be
			// simultaneously free and unfaulted; the bound is the latest busy
			// port's horizon.
			t := cycle + 1
			if s.perturb == nil || s.perturb.PortFaultRate == 0 {
				for _, p := range s.loadPortsList {
					if f := s.portFree[p]; f > t {
						t = f
					}
				}
			}
			s.retryAt = t
			return 0, false
		}
		maxExtra := 0
		misses := 0
		s.lastLevel = 1
		a := &sk.addr[b]
		iter := s.robIter[ei]
		for lane := 0; lane < int(sk.lanes[b]); lane++ {
			addr := a.address(iter, lane, sk.elemsPerIter)
			extra, lvl := s.cacheExtra(addr)
			if s.steady.recording {
				s.steady.record(b, iter, lane, extra)
			}
			if extra > maxExtra {
				maxExtra = extra
				s.lastLevel = int8(lvl)
			}
			if extra > 0 {
				misses++
			}
		}
		lat := baseLat + maxExtra
		s.lastPort = s.loadPortsList[0]
		for _, p := range s.loadPortsList {
			s.portFree[p] = cycle + occ
		}
		if occ > 0 {
			s.portMask &^= s.loadPortsMask
		}
		done := cycle + int64(lat)
		for i := 0; i < lqSlots; i++ {
			s.loadQ.push(done)
		}
		for i := 0; i < misses; i++ {
			s.lfb.push(done)
		}
		return lat, true

	case isa.Store:
		if s.storeQ.len() >= s.cpu.StoreQueue {
			t := cycle + 1
			if s.storeQ.head() > t {
				t = s.storeQ.head()
			}
			s.retryAt = t
			return 0, false
		}
		port, found := s.freePort(isa.Store, cycle)
		if !found {
			return 0, false
		}
		a := &sk.addr[b]
		addr := a.address(s.robIter[ei], 0, sk.elemsPerIter)
		_, lvl := s.hier.Access(addr)
		if s.steady.recording {
			s.steady.record(b, s.robIter[ei], 0, 0)
		}
		s.lastPort, s.lastLevel = int8(port), int8(lvl)
		s.claimPort(port, cycle, occ)
		s.storeQ.push(cycle + int64(baseLat) + 4)
		return baseLat, true

	case isa.Prefetch:
		// Random-region prefetch fills consume line-fill buffers like
		// demand misses; a full LFB array stalls further prefetching (the
		// bandwidth bound that keeps prefetch-everything engines honest).
		// Sequential-stream prefetches are serviced by the L2 streamer path
		// and bypass the L1 fill buffers.
		isStream := sk.isStream[b]
		if !isStream && s.lfb.len() >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if s.lfb.head() > t {
				t = s.lfb.head()
			}
			s.retryAt = t
			return 0, false
		}
		port, found := s.freePort(isa.Prefetch, cycle)
		if !found {
			return 0, false
		}
		a := &sk.addr[b]
		addr := a.address(s.robIter[ei], int(a.LaneSel), sk.elemsPerIter)
		lvl := s.hier.Prefetch(addr)
		if s.steady.recording {
			s.steady.record(b, s.robIter[ei], int(a.LaneSel), lvl)
		}
		if lvl > 0 {
			s.lastLevel = int8(lvl)
			if !isStream {
				// Prefetch fills are fire-and-forget: the buffer frees when
				// the line arrives, overlapping better than demand misses
				// that hold their buffer until the consumer is satisfied.
				s.lfb.push(cycle + int64(s.fillLatency(lvl))/2)
			}
		}
		s.lastPort = int8(port)
		s.claimPort(port, cycle, occ)
		return baseLat, true
	}

	// Arithmetic classes.
	if sk.w512[b] {
		return s.issue512(b, cycle)
	}
	port, found := s.freePort(sk.class[b], cycle)
	if !found {
		return 0, false
	}
	s.lastPort = int8(port)
	s.claimPort(port, cycle, occ)
	return baseLat, true
}

// issue512 places a 512-bit vector µop on one of the 512-bit unit ports.
// Shuffles run on the (always 512-bit-capable) shuffle unit instead.
func (s *Sim) issue512(b int32, cycle int64) (int, bool) {
	sk := &s.skel
	lat := int(sk.lat[b])
	occ := int64(sk.occ[b])
	if sk.class[b] == isa.VecShuffle {
		m := s.classPortMask[isa.VecShuffle] & s.portMask
		if m == 0 {
			s.retryAt = s.portRetry(s.classPortMask[isa.VecShuffle], cycle)
			return 0, false
		}
		p := bits.TrailingZeros32(m)
		s.lastPort = int8(p)
		s.claimPort(p, cycle, occ)
		return lat, true
	}
	// Vec512Ports preserves the model's configured preference order, which
	// need not be ascending, so this scans the list rather than the mask.
	for _, p := range s.cpu.Vec512Ports {
		if s.portMask&(1<<p) != 0 {
			s.lastPort = int8(p)
			s.claimPort(p, cycle, occ)
			return lat, true
		}
	}
	s.retryAt = s.portRetry(s.vec512Mask, cycle)
	return 0, false
}

// freePort finds a free port that accepts class c at cycle: the lowest set
// bit of the masked availability snapshot is the same port the previous
// ascending portFree scan selected. On failure it sets retryAt.
func (s *Sim) freePort(c isa.Class, cycle int64) (int, bool) {
	m := s.classPortMask[c] & s.portMask
	if m == 0 {
		s.retryAt = s.portRetry(s.classPortMask[c], cycle)
		return 0, false
	}
	return bits.TrailingZeros32(m), true
}

// claimPort occupies port until cycle+occ and keeps the scan's availability
// snapshot in sync (a zero-occupancy claim leaves the port free this cycle,
// exactly as the portFree comparison would).
func (s *Sim) claimPort(port int, cycle, occ int64) {
	s.portFree[port] = cycle + occ
	if occ > 0 {
		s.portMask &^= 1 << port
	}
}

// portRetry bounds when any port in mask could next be claimable. With
// fault injection active a currently-faulted port may clear next cycle, so
// the bound degrades to cycle+1.
func (s *Sim) portRetry(mask uint32, cycle int64) int64 {
	if s.perturb != nil && s.perturb.PortFaultRate > 0 {
		return cycle + 1
	}
	t := int64(math.MaxInt64)
	for m := mask; m != 0; m &= m - 1 {
		if f := s.portFree[bits.TrailingZeros32(m)]; f < t {
			t = f
		}
	}
	if t <= cycle {
		t = cycle + 1
	}
	return t
}

// fillLatency maps a fill-source level to its line-fill-buffer hold time.
func (s *Sim) fillLatency(level int) int {
	switch level {
	case 2:
		return s.cpu.L2.Latency
	case 3:
		return s.cpu.LLC.Latency
	default:
		return s.cpu.MemLatency
	}
}

// cacheExtra returns the additional latency (beyond the L1-hit latency baked
// into the instruction table) for accessing addr.
func (s *Sim) cacheExtra(addr uint64) (extra, level int) {
	lat, lvl := s.hier.Access(addr)
	e := lat - s.cpu.L1D.Latency
	if e < 0 {
		e = 0
	}
	return e, lvl
}

// nextEvent returns the next cycle at which progress can occur.
func (s *Sim) nextEvent(cycle int64) int64 {
	next := int64(math.MaxInt64)
	if m, ok := s.inflight.min(); ok && m < next {
		next = m
	}
	for _, f := range s.portFree {
		if f > cycle && f < next {
			next = f
		}
	}
	if m, ok := s.loadQ.min(); ok && m < next {
		next = m
	}
	if m, ok := s.storeQ.min(); ok && m < next {
		next = m
	}
	if m, ok := s.lfb.min(); ok && m < next {
		next = m
	}
	if next == int64(math.MaxInt64) {
		return cycle + 1
	}
	return next
}

// heavy512UtilThreshold is the sustained 512-bit-unit µop throughput (µops
// per cycle) above which the core enters the heavy AVX-512 license. A single
// 512-bit unit cannot exceed 1.0, so only parts with two units (and code
// that keeps both busy — the paper's "two SIMD statements" case) downclock.
const heavy512UtilThreshold = 1.5

// EffectiveFreq applies the frequency-license model: scalar turbo for
// scalar-only code, the AVX2/AVX-512 license for vector code, the heavy
// AVX-512 license when sustained 512-bit utilisation keeps two 512-bit units
// busy (the paper's observation that two SIMD statements downclock the
// core), and an uncore governor penalty proportional to software-prefetch
// density (the bandwidth-saturated regime measured for Voila).
func EffectiveFreq(cpu *isa.CPU, prog *Program, res *Result) float64 {
	fl := cpu.Freq
	f := fl.ScalarGHz
	switch {
	case res.Vec512Uops > 0 && res.Cycles > 0:
		util := float64(res.Vec512Uops) / float64(res.Cycles)
		if util >= heavy512UtilThreshold && len(cpu.Vec512Ports) >= 2 {
			f = fl.AVX512HeavyGHz
		} else {
			f = fl.AVX512GHz
		}
	case prog.VectorWidth == isa.W256 && prog.VectorStatements > 0:
		f = fl.AVX2GHz
	}
	if res.Instructions > 0 && res.PrefetchUops > 0 {
		density := float64(res.PrefetchUops) / float64(res.Instructions)
		f *= 1 - fl.UncoreGovPenalty*density
	}
	if f < fl.MinGHz {
		f = fl.MinGHz
	}
	return f
}
