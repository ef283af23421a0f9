// Package uarch is a cycle-approximate simulator of an out-of-order
// superscalar core: front-end decode bandwidth, a reorder buffer, a unified
// scheduler, port-constrained issue with per-instruction latency and
// occupancy, load/store queues, a simulated cache hierarchy, and an AVX
// frequency-license model. It substitutes for the paper's hardware testbeds
// (Xeon Silver 4110 / Gold 6240R measured via perf_event): the instruction
// traces produced by the HEF translator run on this model, and the counters
// it emits (instructions, cycles, IPC, LLC misses, µops-per-cycle histogram,
// effective frequency) regenerate the paper's tables and figures.
package uarch

import (
	"fmt"

	"hef/internal/fpenc"
	"hef/internal/isa"
)

// NoReg marks an unused register slot in a UOp.
const NoReg = int16(-1)

// AddrKind selects how a memory micro-operation computes its addresses.
type AddrKind uint8

const (
	// AddrNone marks non-memory operations.
	AddrNone AddrKind = iota
	// AddrStride is a sequential stream: element index advances with the
	// iteration, as in a columnar scan.
	AddrStride
	// AddrRandom is a uniform pseudo-random access into a region, as in a
	// hash-table probe. The paper's cache-residency effects (hash tables
	// spilling from L2 to LLC to memory across scale factors) come from
	// Region relative to the cache sizes.
	AddrRandom
	// AddrStack is a spill slot in the (always cache-resident) stack frame.
	AddrStack
)

// AddrSpec describes the address stream of a memory micro-operation.
type AddrSpec struct {
	Kind AddrKind
	// Base is the starting virtual address of the stream or region.
	Base uint64
	// Stride is the per-element byte stride for AddrStride.
	Stride uint64
	// Region is the byte size of the target region for AddrRandom.
	Region uint64
	// Offset is the element offset of this instance within an iteration
	// (AddrStride) or a per-instance diversifier (AddrRandom, AddrStack).
	Offset uint64
	// Seed perturbs the pseudo-random stream so distinct operations do not
	// collide on identical address sequences.
	Seed uint64
	// LaneSel selects which lane of a multi-lane random stream a
	// single-address operation (a software prefetch covering one gather
	// lane) addresses.
	LaneSel uint8
}

// address returns the virtual address accessed by lane in iteration iter,
// with elemsPerIter elements consumed per loop iteration.
func (a *AddrSpec) address(iter int64, lane int, elemsPerIter int) uint64 {
	switch a.Kind {
	case AddrStride:
		idx := uint64(iter)*uint64(elemsPerIter) + a.Offset + uint64(lane)
		return a.Base + idx*a.Stride
	case AddrRandom:
		h := splitmix64(uint64(iter)*0x9e3779b97f4a7c15 ^ a.Seed ^ uint64(lane)<<32 ^ a.Offset<<16)
		if a.Region == 0 {
			return a.Base
		}
		return a.Base + (h%a.Region)&^7
	case AddrStack:
		return a.Base + (a.Offset+uint64(lane))*8
	default:
		return a.Base
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// UOp is one instruction instance in a loop body. Register operands are
// virtual registers local to the body; the simulator renames them per
// iteration. A source register that is not written earlier in the body reads
// the previous iteration's instance (loop-carried) or, if the body never
// writes it, a loop-invariant value. A UOp carries only what the simulator
// and the memo fingerprint read; the translator keeps each µop's provenance
// beside the body and renders it on request (translator.Output.Comment).
type UOp struct {
	// Instr is the static instruction description.
	Instr *isa.Instr
	// Dst is the destination virtual register, or NoReg.
	Dst int16
	// Srcs are source virtual registers; unused slots hold NoReg.
	Srcs [3]int16
	// Addr describes the memory access for Load/Store/Gather/Prefetch.
	Addr AddrSpec
}

// Program is a loop body plus the metadata the simulator and the frequency
// model need.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Body is the loop body in program order.
	Body []UOp
	// NumRegs is the number of virtual registers referenced by Body.
	NumRegs int
	// ElemsPerIter is the number of data elements one body iteration
	// processes: p*(v*lanes + s) for a translated HID template.
	ElemsPerIter int
	// VectorStatements is the v parameter of the generating candidate node;
	// the frequency-license model uses it together with the CPU's 512-bit
	// unit count.
	VectorStatements int
	// VectorWidth is the SIMD width used (0 if scalar-only).
	VectorWidth isa.Width
}

// Validate checks internal consistency: register indices in range and
// memory specs present exactly on memory classes.
func (p *Program) Validate() error {
	if len(p.Body) == 0 {
		return fmt.Errorf("uarch: program %q has an empty body", p.Name)
	}
	if p.ElemsPerIter <= 0 {
		return fmt.Errorf("uarch: program %q has ElemsPerIter=%d", p.Name, p.ElemsPerIter)
	}
	for i := range p.Body {
		u := &p.Body[i]
		if u.Instr == nil {
			return fmt.Errorf("uarch: program %q body[%d] has nil Instr", p.Name, i)
		}
		if u.Dst != NoReg && (u.Dst < 0 || int(u.Dst) >= p.NumRegs) {
			return fmt.Errorf("uarch: program %q body[%d] dst r%d out of range [0,%d)", p.Name, i, u.Dst, p.NumRegs)
		}
		for _, s := range u.Srcs {
			if s != NoReg && (s < 0 || int(s) >= p.NumRegs) {
				return fmt.Errorf("uarch: program %q body[%d] src r%d out of range [0,%d)", p.Name, i, s, p.NumRegs)
			}
		}
		if u.Instr.Class.IsMemory() && u.Addr.Kind == AddrNone {
			return fmt.Errorf("uarch: program %q body[%d] (%s) is a memory op without an AddrSpec", p.Name, i, u.Instr.Name)
		}
	}
	return nil
}

// AppendFingerprint appends the canonical content encoding of the program to
// e: every semantic field of every instruction, operand, and address stream.
// It is the program component of the memo fingerprint (internal/memo), so its
// byte layout is pinned — changing it invalidates every persisted memo store.
func (p *Program) AppendFingerprint(e *fpenc.E) {
	e.Str(p.Name)
	e.Int(p.NumRegs)
	e.Int(p.ElemsPerIter)
	e.Int(p.VectorStatements)
	e.Int(int(p.VectorWidth))
	e.Int(len(p.Body))
	for i := range p.Body {
		u := &p.Body[i]
		in := u.Instr
		e.Str(in.Name)
		e.Int(int(in.Class))
		e.Int(int(in.Width))
		e.Int(in.Latency)
		e.Int(in.Occupancy)
		e.Int(in.Uops)
		e.Int(in.Lanes)
		e.Int(in.Argc)
		e.Int(int(u.Dst))
		for _, s := range u.Srcs {
			e.Int(int(s))
		}
		e.Int(int(u.Addr.Kind))
		e.U64(u.Addr.Base)
		e.U64(u.Addr.Stride)
		e.U64(u.Addr.Region)
		e.U64(u.Addr.Offset)
		e.U64(u.Addr.Seed)
		e.Int(int(u.Addr.LaneSel))
		e.Spill()
	}
}

// InstructionsPerIter returns the number of machine instructions per body
// iteration.
func (p *Program) InstructionsPerIter() int { return len(p.Body) }

// UopsPerIter returns the number of micro-operations per body iteration.
func (p *Program) UopsPerIter() int {
	n := 0
	for i := range p.Body {
		n += p.Body[i].Instr.Uops
	}
	return n
}
