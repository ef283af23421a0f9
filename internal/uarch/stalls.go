package uarch

import "hef/internal/isa"

// Top-down stall attribution. Every simulated cycle is classified by why
// the retirement stage made no progress, in the spirit of Yasin's top-down
// method over perf counters: the cycle either retired µops, or it is charged
// to the frontend (empty machine), to backend port contention, to the memory
// subsystem (cache/DRAM latency or full load/store/fill queues), or to
// dependency latency (an arithmetic producer chain). The invariant
// Stalls.Total() == Result.Cycles holds for every Run.

// stallKind indexes the per-cycle classification.
type stallKind uint8

const (
	stallRetiring stallKind = iota
	stallFrontend
	stallBackendPort
	stallMemory
	stallDependency
)

// Stalls is the cycle-attribution bucket set of one simulation.
type Stalls struct {
	// Retiring counts cycles in which at least one µop retired.
	Retiring uint64 `json:"retiring"`
	// Frontend counts cycles with an empty ROB: the front end had not
	// delivered work (pipeline fill and drain).
	Frontend uint64 `json:"frontend"`
	// BackendPort counts cycles the oldest instruction was ready but no
	// issue port accepting its class was free.
	BackendPort uint64 `json:"backend_port"`
	// Memory counts cycles the oldest instruction waited on the memory
	// subsystem: an in-flight load/gather/store, a blocking memory-class
	// producer, or a full load queue, store queue, or line-fill-buffer array.
	Memory uint64 `json:"memory"`
	// Dependency counts cycles the oldest instruction waited on the latency
	// of a non-memory producer chain.
	Dependency uint64 `json:"dependency"`
}

// Total sums all buckets; it equals Result.Cycles for a simulator run.
func (s *Stalls) Total() uint64 {
	return s.Retiring + s.Frontend + s.BackendPort + s.Memory + s.Dependency
}

func (s *Stalls) add(k stallKind, n uint64) {
	switch k {
	case stallRetiring:
		s.Retiring += n
	case stallFrontend:
		s.Frontend += n
	case stallBackendPort:
		s.BackendPort += n
	case stallMemory:
		s.Memory += n
	case stallDependency:
		s.Dependency += n
	}
}

// addStalls accumulates o into s bucket-wise.
func (s *Stalls) addStalls(o *Stalls) {
	s.Retiring += o.Retiring
	s.Frontend += o.Frontend
	s.BackendPort += o.BackendPort
	s.Memory += o.Memory
	s.Dependency += o.Dependency
}

// scale multiplies every bucket by f and then repairs the rounding residual
// against the target cycle count so the sum-equals-cycles invariant survives
// extrapolation. A zero bucket set (a hand-built Result) is left untouched.
func (s *Stalls) scale(f float64, targetCycles uint64) {
	if s.Total() == 0 {
		return
	}
	s.Retiring = uint64(float64(s.Retiring) * f)
	s.Frontend = uint64(float64(s.Frontend) * f)
	s.BackendPort = uint64(float64(s.BackendPort) * f)
	s.Memory = uint64(float64(s.Memory) * f)
	s.Dependency = uint64(float64(s.Dependency) * f)
	sum := s.Total()
	if sum >= targetCycles {
		return
	}
	// Per-bucket floors undershoot the floored total; charge the residual to
	// the largest bucket.
	residual := targetCycles - sum
	largest := &s.Retiring
	for _, b := range []*uint64{&s.Frontend, &s.BackendPort, &s.Memory, &s.Dependency} {
		if *b > *largest {
			largest = b
		}
	}
	*largest += residual
}

// OccBuckets is the resolution of the occupancy histograms.
const OccBuckets = 8

// OccHist is an occupancy histogram sampled once per cycle: bucket i counts
// cycles in which the occupancy fell in [i*Cap/OccBuckets, (i+1)*Cap/OccBuckets).
type OccHist struct {
	// Cap is the structure's capacity (ROB µops, load-queue slots).
	Cap     int                `json:"cap"`
	Buckets [OccBuckets]uint64 `json:"buckets"`
}

// Record charges cycles cycles at occupancy occ.
func (h *OccHist) Record(occ int, cycles uint64) {
	if h.Cap <= 0 {
		return
	}
	b := occ * OccBuckets / h.Cap
	if b >= OccBuckets {
		b = OccBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	h.Buckets[b] += cycles
}

// Total sums the histogram; it equals Result.Cycles for a simulator run.
func (h *OccHist) Total() uint64 {
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

func (h *OccHist) addHist(o *OccHist) {
	if o.Cap > h.Cap {
		h.Cap = o.Cap
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

func (h *OccHist) scale(f float64) {
	for i := range h.Buckets {
		h.Buckets[i] = uint64(float64(h.Buckets[i]) * f)
	}
}

// classifyStall attributes one non-retiring cycle. It inspects the oldest
// in-flight instruction — the one blocking retirement — mirroring the checks
// tryIssue performs, without mutating any state.
func (s *Sim) classifyStall() stallKind {
	if s.robCount == 0 {
		return stallFrontend
	}
	sk := &s.skel
	h := s.robHead
	b := s.robBody[h]
	if s.robIssued[h] {
		// Executing: charge the wait to its result latency.
		if sk.class[b].IsMemory() {
			return stallMemory
		}
		return stallDependency
	}
	// Operand readiness, re-deriving each operand's slab cell from the
	// skeleton (the per-entry robSrc list is packed and drops the operand
	// slot, which the memory-producer attribution needs).
	ready := true
	memBlocked := false
	for k := 0; k < 3; k++ {
		o := sk.srcCell(int(b), k, s.robIter[h])
		if o < 0 {
			continue
		}
		if v := s.slab[o]; v == notIssued || v > s.cycle {
			ready = false
			if sk.srcMem[int(b)*3+k] {
				memBlocked = true
			}
		}
	}
	if !ready {
		if memBlocked {
			return stallMemory
		}
		return stallDependency
	}
	// Operands ready: an execution resource is the blocker.
	switch sk.class[b] {
	case isa.Load:
		if s.loadQ.len() >= s.cpu.LoadQueue || s.lfb.len() >= s.cpu.LineFillBuffers {
			return stallMemory
		}
	case isa.GatherOp:
		if s.loadQ.len()+int(sk.lqSlots[b]) > s.cpu.LoadQueue || s.lfb.len() >= s.cpu.LineFillBuffers {
			return stallMemory
		}
	case isa.Store:
		if s.storeQ.len() >= s.cpu.StoreQueue {
			return stallMemory
		}
	}
	return stallBackendPort
}
