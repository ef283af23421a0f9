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

// minHeap is a small binary min-heap of completion cycles.
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

// drain removes all heap entries <= cycle and returns how many were removed.
func (h *minHeap) drain(cycle int64) int {
	n := 0
	for len(*h) > 0 && (*h)[0] <= cycle {
		h.pop()
		n++
	}
	return n
}

func (h *minHeap) min() (int64, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0], true
}

// timedEntry pairs a scheduler entry with the cycle its operands are ready.
type timedEntry struct {
	at int64
	ei int32
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

	rs []int32 // indices into the ROB arrays, age order, waiting to issue

	// rsCount is the number of dispatched-but-unissued entries (the scheduler
	// occupancy). rs holds only the entries of µops the event scheduler does
	// not track; the tracked ones wait in readySet/timeHeap/watcher lists.
	rsCount int

	// Event-driven scheduler state, tracked per µop: entries of
	// skeleton.srcSafe µops use it, the rest are re-sampled on every scan.
	// An entry whose operands are all resolved has a final data-ready cycle
	// (a sampled single-writer producer completion can never change):
	// it waits in timeHeap until that cycle arrives, then moves to readySet,
	// which holds the data-ready entries in age order — the only entries a
	// scan must visit. Entries with unissued producers are parked on per-cell
	// watcher lists: watchHead[cell] heads a list threaded through watchNext
	// (node n watches the cell robSrc[n] names; n/3 is its ROB entry), and
	// the producer's issue walks the list, folds its completion into each
	// watcher's readyAt, and moves watchers whose last operand just resolved
	// (waitCnt reaches zero) into timeHeap.
	readySet  []int32
	timeHeap  []timedEntry
	waitCnt   []uint8
	readyAt   []int64
	watchHead []int32
	watchNext []int32

	// blockedGen/blockedRetry memoize, per body µop within one scan
	// (stamped by scanGen), a failed tryIssue's retry bound: execution
	// resources only shrink as a scan proceeds, so a later same-body entry
	// must fail identically and is skipped.
	blockedGen   []int64
	blockedRetry []int64
	scanGen      int64

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

	loadQ, storeQ minHeap
	lfb           minHeap
	inflight      minHeap

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
	// hierErr records a cache-hierarchy construction failure; NewSim keeps
	// its infallible signature and Run surfaces the error instead.
	hierErr error

	// steady is the fast path: core-only period detection (steady.go) and
	// response-verified replay of the recorded period (replay.go). Its
	// scratch buffers persist across runs so hot sweep loops stay
	// allocation-free. fastOff disables it (SetFastPath).
	steady  steadyState
	fastOff bool
}

// NewSim builds a simulator for a CPU with a fresh cache hierarchy. An
// invalid cache geometry does not fail here: the error is deferred and
// returned by the first Run (and exposed by Err), so call sites that
// construct simulators for the built-in CPU models stay non-fallible.
func NewSim(cpu *isa.CPU) *Sim {
	hier, err := cache.New(cpu)
	if err != nil {
		return &Sim{cpu: cpu, hierErr: fmt.Errorf("uarch: building cache hierarchy: %w", err)}
	}
	s := &Sim{cpu: cpu, hier: hier}

	robCap := cpu.ROBSize + 8
	s.robBody = make([]int32, robCap)
	s.robIter = make([]int64, robCap)
	s.robCompletion = make([]int64, robCap)
	s.robIssued = make([]bool, robCap)
	s.robSrc = make([]int32, 3*robCap)
	s.robSrcCnt = make([]uint8, robCap)
	s.robDst = make([]int32, robCap)
	rsCap := cpu.RSSize
	if rsCap < 1 {
		rsCap = 1
	}
	s.rs = make([]int32, 0, rsCap)
	s.portFree = make([]int64, len(cpu.Ports))
	s.loadQ = make(minHeap, 0, cpu.LoadQueue+1)
	s.storeQ = make(minHeap, 0, cpu.StoreQueue+1)
	// A gather checks only len < LineFillBuffers before pushing one entry
	// per missing lane, so the fill-buffer heap can briefly exceed its
	// nominal capacity; the margin keeps that growth allocation-free.
	s.lfb = make(minHeap, 0, cpu.LineFillBuffers+64)
	s.inflight = make(minHeap, 0, robCap)

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
	s.readySet = make([]int32, 0, robCap)
	s.timeHeap = make([]timedEntry, 0, robCap)
	return s
}

// pushTimed adds entry ei, data-ready at cycle at, to the maturation heap.
func (s *Sim) pushTimed(at int64, ei int32) {
	h := append(s.timeHeap, timedEntry{at, ei})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.timeHeap = h
}

func (s *Sim) popTimed() int32 {
	h := s.timeHeap
	ei := h[0].ei
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.timeHeap = h
	return ei
}

// insertReady places a matured entry into readySet at its age position, so
// the scan visits data-ready entries in exactly the order the exhaustive
// age-ordered scan would attempt them.
func (s *Sim) insertReady(ei int32) {
	bl := int64(s.skel.bodyLen)
	seq := s.robIter[ei]*bl + int64(s.robBody[ei])
	rdy := s.readySet
	lo, hi := 0, len(rdy)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := rdy[mid]
		if s.robIter[m]*bl+int64(s.robBody[m]) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rdy = append(rdy, 0)
	copy(rdy[lo+1:], rdy[lo:])
	rdy[lo] = ei
	s.readySet = rdy
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

// Err reports a deferred construction error (an invalid cache geometry in
// the CPU model). When non-nil, Hierarchy returns nil and Run fails.
func (s *Sim) Err() error { return s.hierErr }

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
func (s *Sim) RunInto(res *Result, prog *Program, iters int64) error {
	if s.hierErr != nil {
		return s.hierErr
	}
	if iters <= 0 {
		return fmt.Errorf("uarch: iters must be positive, got %d", iters)
	}
	if err := s.bind(prog); err != nil {
		return err
	}
	sk := &s.skel
	s.reset()
	statsBefore := s.hier.Stats()

	cpu := s.cpu
	pb := res.PortBusy[:0]
	*res = Result{Name: prog.Name}
	if cap(pb) < len(cpu.Ports) {
		pb = make([]uint64, len(cpu.Ports))
	} else {
		pb = pb[:len(cpu.Ports)]
		clear(pb)
	}
	res.PortBusy = pb
	res.ROBOcc.Cap = cpu.ROBSize
	res.LoadQOcc.Cap = cpu.LoadQueue
	nr := sk.numRegs
	slab := s.slab
	bodyLen := sk.bodyLen

	var cycle int64
	var dispatchIter int64
	var dispatchIdx int
	var idleSkipped int64
	traceDone := false
	s.steady.begin(s)

	for !traceDone || s.robCount > 0 {
		// Free memory-queue slots whose operations completed.
		s.loadQ.drain(cycle)
		s.storeQ.drain(cycle)
		s.lfb.drain(cycle)
		s.inflight.drain(cycle)

		// Steady-state fast path: at the first cycle observing each new
		// dispatch iteration (after the drains, so every queued completion
		// is in the future), look for an exact recurrence of the core's
		// relative state and, once a recorded period verifies, replay whole
		// periods of the loop at once.
		if s.steady.active && !traceDone && dispatchIter > s.steady.lastIter {
			s.steady.observe(s, res, &cycle, &dispatchIter, dispatchIdx, iters)
		}

		// Retire in order.
		retiredUops := 0
		for s.robCount > 0 {
			h := s.robHead
			if !s.robIssued[h] || s.robCompletion[h] > cycle {
				break
			}
			b := s.robBody[h]
			uops := int(sk.uops[b])
			// Instructions wider than the retire bandwidth (e.g. gathers)
			// retire alone; otherwise respect the per-cycle budget.
			if retiredUops > 0 && retiredUops+uops > cpu.RetireWidth {
				break
			}
			retiredUops += uops
			res.Instructions++
			res.Uops += uint64(uops)
			if s.trace != nil {
				s.traceStage("retire", cycle, s.robIter[h], b, prog.Body[b].Instr.Name)
			}
			s.uopsInROB -= uops
			h++
			if h == len(s.robBody) {
				h = 0
			}
			s.robHead = h
			s.robCount--
		}

		// Top-down attribution: a cycle that retired µops is retiring; a
		// non-retiring cycle is charged to whatever blocks the oldest
		// in-flight instruction at this point (after retirement, before
		// issue, so the classification sees the state that stalled it).
		stall := stallRetiring
		if retiredUops == 0 {
			stall = s.classifyStall(cycle)
		}

		// Issue from the scheduler in age order. A scan below rsNextReady is
		// provably fruitless (no slab cell changed since the bound was
		// sampled) and is skipped wholesale; the cycle still accounts as an
		// ordinary zero-issue cycle.
		issuedUops := 0
		issuedInstrs := 0
		if cycle >= s.rsNextReady && (len(s.rs) > 0 || len(s.timeHeap) > 0 || len(s.readySet) > 0) {
			// Mature event-tracked entries whose data-ready cycle has arrived
			// into the age-ordered ready set.
			for len(s.timeHeap) > 0 && s.timeHeap[0].at <= cycle {
				s.insertReady(s.popTimed())
			}
			if len(s.rs) == 0 && len(s.readySet) == 0 {
				// Every waiting entry is event-tracked with a future ready
				// cycle: the heap minimum (non-empty here) is the exact next.
				s.rsNextReady = s.timeHeap[0].at
			} else {
				// Snapshot port availability once; claims clear bits as the
				// scan proceeds, and the lowest set bit of a class's masked
				// ports is exactly the port an ascending scan would pick.
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
				s.scanGen++
				gen := s.scanGen

				minNext := int64(math.MaxInt64)
				if len(s.timeHeap) > 0 {
					minNext = s.timeHeap[0].at
				}
				// Merge-walk the resampled list and the ready set in age
				// order, reproducing the attempt sequence of one exhaustive
				// age-ordered scan over all waiting entries (event-tracked
				// entries that are not yet ready are provably unissuable this
				// cycle and need no visit).
				bl := int64(bodyLen)
				rs := s.rs
				rdy := s.readySet
				ai, bi := 0, 0
				wa, wb := 0, 0
				aSeq, bSeq := int64(math.MaxInt64), int64(math.MaxInt64)
				if len(rs) > 0 {
					aSeq = s.robIter[rs[0]]*bl + int64(s.robBody[rs[0]])
				}
				if len(rdy) > 0 {
					bSeq = s.robIter[rdy[0]]*bl + int64(s.robBody[rdy[0]])
				}
				for ai < len(rs) || bi < len(rdy) {
					fromA := aSeq <= bSeq
					var ei int32
					if fromA {
						ei = rs[ai]
					} else {
						ei = rdy[bi]
					}
					issued := false
					if issuedInstrs < issueInstrCap {
						attempt := true
						if fromA {
							// Live-sample this entry's operand cells: its
							// watched registers can be rewritten (accumulator
							// redefinitions), so only current values decide.
							so := int(ei) * 3
							n := int(s.robSrcCnt[ei])
							var ready int64
							for k := 0; k < n; k++ {
								v := slab[s.robSrc[so+k]]
								if v == notIssued {
									attempt = false
									break
								}
								if v > ready {
									ready = v
								}
							}
							if attempt && ready > cycle {
								// Data-ready at a known future cycle: a
								// candidate for the scan-skip bound.
								if ready < minNext {
									minNext = ready
								}
								attempt = false
							}
						}
						if attempt {
							b := s.robBody[ei]
							if s.blockedGen[b] == gen {
								// A same-body entry already failed this scan
								// and resources only shrink within one: same
								// outcome, same bound.
								if s.blockedRetry[b] < minNext {
									minNext = s.blockedRetry[b]
								}
							} else if lat, ok := s.tryIssue(ei, b, cycle); !ok {
								// Blocked on execution resources: retryAt is
								// the earliest the failing conditions clear.
								s.blockedGen[b] = gen
								s.blockedRetry[b] = s.retryAt
								if s.retryAt < minNext {
									minNext = s.retryAt
								}
							} else {
								issued = true
								comp := cycle + int64(lat)
								s.robIssued[ei] = true
								s.robCompletion[ei] = comp
								s.rsCount--
								if o := s.robDst[ei]; o >= 0 {
									slab[o] = comp
									// Wake the consumers parked on this cell.
									for node := s.watchHead[o]; node >= 0; node = s.watchNext[node] {
										we := node / 3
										if comp > s.readyAt[we] {
											s.readyAt[we] = comp
										}
										s.waitCnt[we]--
										if s.waitCnt[we] == 0 {
											s.pushTimed(s.readyAt[we], we)
										}
									}
									s.watchHead[o] = -1
								}
								s.inflight.push(comp)
								if s.trace != nil {
									s.traceIssue(cycle, int64(lat), s.robIter[ei], b, prog.Body[b].Instr.Name)
								}
								issuedUops += int(sk.uops[b])
								issuedInstrs++
								if sk.w512[b] {
									res.Vec512Uops += uint64(sk.uops[b])
								}
								if sk.class[b] == isa.Prefetch {
									res.PrefetchUops++
								}
							}
						}
					}
					if fromA {
						if !issued {
							rs[wa] = ei
							wa++
						}
						ai++
						if ai < len(rs) {
							aSeq = s.robIter[rs[ai]]*bl + int64(s.robBody[rs[ai]])
						} else {
							aSeq = int64(math.MaxInt64)
						}
					} else {
						if !issued {
							rdy[wb] = ei
							wb++
						}
						bi++
						if bi < len(rdy) {
							bSeq = s.robIter[rdy[bi]]*bl + int64(s.robBody[rdy[bi]])
						} else {
							bSeq = int64(math.MaxInt64)
						}
					}
				}
				s.rs = rs[:wa]
				s.readySet = rdy[:wb]
				if issuedInstrs > 0 || minNext == int64(math.MaxInt64) {
					// An issue rewrote the slab and resource horizons, so the
					// sampled bound is void (and the MaxInt64 case is a
					// defensive clamp against an all-blocked scan with no
					// finite retry bound).
					s.rsNextReady = cycle + 1
				} else {
					s.rsNextReady = minNext
				}
			}
		}
		res.IssuedUops += uint64(issuedUops)
		if issuedUops >= HistBuckets {
			issuedUops = HistBuckets - 1
		}
		res.Hist[issuedUops]++

		// Dispatch new instructions into ROB + scheduler, resolving each
		// entry's operand cells to slab offsets as it enters.
		dispatched := 0
		budget := cpu.DecodeWidth
		for !traceDone && budget > 0 {
			b := dispatchIdx
			uops := int(sk.uops[b])
			if s.uopsInROB+uops > cpu.ROBSize || s.rsCount >= cpu.RSSize || s.robCount >= len(s.robBody) {
				break
			}
			sameBase := int(dispatchIter&regRingMask) * nr
			if b == 0 {
				cells := slab[sameBase : sameBase+nr]
				for i := range cells {
					cells[i] = notIssued
				}
				// The slot's watcher lists are dead along with its cells
				// (any live watcher's producer issued long before the ring
				// wrapped around to this slot).
				wh := s.watchHead[sameBase : sameBase+nr]
				for i := range wh {
					wh[i] = -1
				}
			}
			t := s.robTail
			s.robBody[t] = int32(b)
			s.robIter[t] = dispatchIter
			s.robIssued[t] = false
			if d := sk.dst[b]; d != NoReg {
				s.robDst[t] = int32(sameBase + int(d))
			} else {
				s.robDst[t] = -1
			}
			so := t * 3
			nsrc := 0
			waiting := 0
			safe := sk.srcSafe[b]
			var srcBound int64
			for k := 0; k < 3; k++ {
				var o int32
				switch sk.srcKind[b*3+k] {
				case srcSame:
					o = int32(sameBase + int(sk.srcReg[b*3+k]))
				case srcCarried:
					if dispatchIter == 0 {
						continue // pre-loop value, always ready
					}
					o = int32(int((dispatchIter-1)&regRingMask)*nr + int(sk.srcReg[b*3+k]))
				default:
					continue
				}
				s.robSrc[so+nsrc] = o
				if v := slab[o]; v == notIssued {
					if safe {
						// Park this operand on the producer cell's watcher
						// list; the producer's issue resolves it.
						node := int32(so + nsrc)
						s.watchNext[node] = s.watchHead[o]
						s.watchHead[o] = node
					}
					waiting++
				} else if v > srcBound {
					srcBound = v
				}
				nsrc++
			}
			s.robSrcCnt[t] = uint8(nsrc)
			// Fold the new entry into the scan-skip bound: an entry with an
			// unissued producer cannot issue before a scan that issues the
			// producer (which re-arms the bound), so only resolved entries
			// lower it. Sampled values stay exact until the next issue.
			if safe {
				s.waitCnt[t] = uint8(waiting)
				s.readyAt[t] = srcBound
				if waiting == 0 {
					s.pushTimed(srcBound, int32(t))
					if srcBound < cycle+1 {
						srcBound = cycle + 1
					}
					if srcBound < s.rsNextReady {
						s.rsNextReady = srcBound
					}
				}
			} else {
				if waiting == 0 {
					if srcBound < cycle+1 {
						srcBound = cycle + 1
					}
					if srcBound < s.rsNextReady {
						s.rsNextReady = srcBound
					}
				}
				s.rs = append(s.rs, int32(t))
			}
			s.rsCount++
			if s.trace != nil {
				s.traceStage("dispatch", cycle, dispatchIter, int32(b), prog.Body[b].Instr.Name)
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
			dispatchIdx++
			if dispatchIdx == bodyLen {
				dispatchIdx = 0
				dispatchIter++
				if dispatchIter == iters {
					traceDone = true
				}
			}
		}
		// Per-cycle observability accounting: stall bucket, structure
		// occupancy, port busyness.
		res.Stalls.add(stall, 1)
		if s.robOccLUT != nil {
			res.ROBOcc.Buckets[s.robOccLUT[s.uopsInROB]]++
		}
		if s.loadQOccLUT != nil {
			res.LoadQOcc.Buckets[s.loadQOccLUT[len(s.loadQ)]]++
		}
		for i, f := range s.portFree {
			if f > cycle {
				res.PortBusy[i]++
			}
		}

		// Fast-forward through stall cycles.
		if issuedInstrs == 0 && dispatched == 0 && retiredUops == 0 {
			next := s.nextEvent(cycle)
			if next > cycle+1 {
				skipped := uint64(next - cycle - 1)
				idleSkipped += int64(skipped)
				res.Hist[0] += skipped
				// The skipped cycles stall for the same reason and at the
				// same occupancies as the current one.
				res.Stalls.add(stall, skipped)
				if s.robOccLUT != nil {
					res.ROBOcc.Buckets[s.robOccLUT[s.uopsInROB]] += skipped
				}
				if s.loadQOccLUT != nil {
					res.LoadQOcc.Buckets[s.loadQOccLUT[len(s.loadQ)]] += skipped
				}
				for i, f := range s.portFree {
					if b := min(f, next) - cycle - 1; b > 0 {
						res.PortBusy[i] += uint64(b)
					}
				}
				cycle = next
				continue
			}
		}
		cycle++
	}

	res.Cycles = uint64(cycle)
	res.Elems = uint64(iters) * uint64(sk.elemsPerIter)
	res.Cache = statsDelta(s.hier.Stats(), statsBefore)
	res.FreqGHz = EffectiveFreq(cpu, prog, res)
	recordTotals(res, s.steady.skippedCycles, idleSkipped)

	if check.Enabled() {
		if err := s.steady.invariantErr; err != nil {
			return err
		}
		if err := res.SelfCheck(); err != nil {
			return err
		}
		if want := uint64(iters) * uint64(bodyLen); res.Instructions != want {
			return fmt.Errorf("uarch: selfcheck %q: retired %d instructions, want iters*body = %d", prog.Name, res.Instructions, want)
		}
	}
	return nil
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

// reset rewinds the pipeline state for a fresh run. The slab is not cleared:
// each iteration's cells are reset when it dispatches, before any read.
func (s *Sim) reset() {
	s.robHead, s.robTail, s.robCount, s.uopsInROB = 0, 0, 0, 0
	s.rs = s.rs[:0]
	s.rsCount = 0
	s.readySet = s.readySet[:0]
	s.timeHeap = s.timeHeap[:0]
	for i := range s.portFree {
		s.portFree[i] = 0
	}
	s.loadQ = s.loadQ[:0]
	s.storeQ = s.storeQ[:0]
	s.lfb = s.lfb[:0]
	s.inflight = s.inflight[:0]
	s.rsNextReady = 0
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
		if len(s.loadQ) >= s.cpu.LoadQueue || len(s.lfb) >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if len(s.loadQ) >= s.cpu.LoadQueue && s.loadQ[0] > t {
				t = s.loadQ[0]
			}
			if len(s.lfb) >= s.cpu.LineFillBuffers && s.lfb[0] > t {
				t = s.lfb[0]
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
		if len(s.loadQ)+lqSlots > s.cpu.LoadQueue || len(s.lfb) >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if len(s.loadQ)+lqSlots > s.cpu.LoadQueue && len(s.loadQ) > 0 && s.loadQ[0] > t {
				t = s.loadQ[0]
			}
			if len(s.lfb) >= s.cpu.LineFillBuffers && s.lfb[0] > t {
				t = s.lfb[0]
			}
			s.retryAt = t
			return 0, false
		}
		if s.loadPortsMask == 0 || s.portMask&s.loadPortsMask != s.loadPortsMask {
			// All load ports must be simultaneously free and unfaulted; the
			// bound is the latest busy port's horizon.
			t := cycle + 1
			if s.perturb == nil || s.perturb.PortFaultRate == 0 {
				for _, p := range s.loadPortsList {
					if f := s.portFree[p]; f > t {
						t = f
					}
				}
			}
			if s.loadPortsMask == 0 {
				t = int64(math.MaxInt64)
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
		if len(s.storeQ) >= s.cpu.StoreQueue {
			t := cycle + 1
			if len(s.storeQ) > 0 && s.storeQ[0] > t {
				t = s.storeQ[0]
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
		if !isStream && len(s.lfb) >= s.cpu.LineFillBuffers {
			t := cycle + 1
			if s.lfb[0] > t {
				t = s.lfb[0]
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

// portFaulted reports whether fault injection holds port unavailable at
// cycle. A faulted port stays claimable on later cycles, so the scheduler
// retries and the fast-forward loop in nextEvent cannot live-lock.
func (s *Sim) portFaulted(port int, cycle int64) bool {
	return s.perturb != nil && s.perturb.PortFault(port, cycle)
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
