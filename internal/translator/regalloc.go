package translator

import (
	"sort"

	"hef/internal/isa"
	"hef/internal/uarch"
)

// stackBase is the virtual address of the spill area. It is small and hot,
// so spills mostly hit the L1 cache — their cost is the extra instructions
// and the store/load latency, which is exactly the "register and cache data
// swapping" effect the paper attributes to oversized packs.
const stackBase = uint64(0xF) << 40

// insertSpills rewrites the abstract op list so that at no point more than
// scalarBudget scalar (or vectorBudget vector) non-pinned values are live in
// registers, inserting stack stores and reloads using a furthest-next-use
// eviction policy.
func insertSpills(em *emitter, scalarBudget, vectorBudget int) (out []absOp, stores, loads int) {
	ops := em.ops
	// Spill code comes on top of ops; a node that spills grows out once.
	out = make([]absOp, 0, len(ops))

	// Collect use positions per value.
	uses := make([][]int32, em.numVals)
	for i := range ops {
		for _, s := range ops[i].srcs {
			if s != noVal {
				uses[s] = append(uses[s], int32(i))
			}
		}
	}
	usePtr := make([]int, em.numVals)

	// nextUse returns the next op index at which id is used after pos, or -1.
	nextUse := func(id int, pos int) int32 {
		u := uses[id]
		p := usePtr[id]
		for p < len(u) && u[p] < int32(pos) {
			p++
		}
		usePtr[id] = p
		if p == len(u) {
			return -1
		}
		return u[p]
	}

	type regSet map[int]struct{}
	inReg := [2]regSet{{}, {}} // [0]=scalar, [1]=vector
	inMem := make([]bool, em.numVals)
	budget := [2]int{scalarBudget, vectorBudget}

	classOf := func(id int) int {
		if em.isVector[id] {
			return 1
		}
		return 0
	}

	spillAddr := func(id int) uarch.AddrSpec {
		return uarch.AddrSpec{Kind: uarch.AddrStack, Base: stackBase, Offset: uint64(id) * 8}
	}

	emitStore := func(id int) {
		in := isa.MustScalar("movq.st")
		if em.isVector[id] {
			in = isa.MustAVX512("vmovdqu64.st")
		}
		out = append(out, absOp{instr: in, dst: noVal, srcs: [3]int{id, noVal, noVal},
			addr: spillAddr(id), vector: em.isVector[id], comment: "spill"})
		stores++
		inMem[id] = true
	}

	emitReload := func(id int) {
		in := isa.MustScalar("movq")
		if em.isVector[id] {
			in = isa.MustAVX512("vmovdqu64")
		}
		out = append(out, absOp{instr: in, dst: id, srcs: [3]int{noVal, noVal, noVal},
			addr: spillAddr(id), vector: em.isVector[id], comment: "reload"})
		loads++
	}

	// evictOne frees a register of class c, preferring the value whose next
	// use is furthest away; keep lists the values that must stay resident.
	// Residents are visited in id order: the victim choice (and with it the
	// emitted spill code) must not depend on map iteration order, or repeated
	// translations of the same node produce different programs.
	evictOne := func(c, pos int, keep [3]int) bool {
		resident := make([]int, 0, len(inReg[c]))
		for id := range inReg[c] {
			resident = append(resident, id)
		}
		sort.Ints(resident)
		victim, victimNext := -1, int32(-2)
		for _, id := range resident {
			if id == keep[0] || id == keep[1] || id == keep[2] {
				continue
			}
			nu := nextUse(id, pos)
			if nu == -1 { // dead: free without spilling
				victim, victimNext = id, -1
				break
			}
			if victimNext != -1 && nu > victimNext {
				victim, victimNext = id, nu
			}
		}
		if victim < 0 {
			return false
		}
		if victimNext != -1 && !inMem[victim] {
			emitStore(victim)
		}
		delete(inReg[c], victim)
		return true
	}

	// ensure brings id into a register before position pos; defining marks a
	// fresh definition (no reload needed).
	ensure := func(id, pos int, keep [3]int, defining bool) {
		if em.pinned[id] {
			return // pinned values have reserved registers
		}
		c := classOf(id)
		if _, ok := inReg[c][id]; ok {
			if defining {
				inMem[id] = false // redefinition invalidates the stack copy
			}
			return
		}
		for len(inReg[c]) >= budget[c] {
			if !evictOne(c, pos, keep) {
				break // everything is kept; allow transient overflow
			}
		}
		if !defining && inMem[id] {
			emitReload(id)
		}
		inReg[c][id] = struct{}{}
		if defining {
			inMem[id] = false
		}
	}

	for i := range ops {
		op := ops[i]
		keep := op.srcs
		for _, s := range op.srcs {
			if s != noVal {
				ensure(s, i, keep, false)
			}
		}
		// Drop sources that die at this op.
		for _, s := range op.srcs {
			if s != noVal && !em.pinned[s] && nextUse(s, i+1) == -1 {
				delete(inReg[classOf(s)], s)
			}
		}
		if op.dst != noVal {
			ensure(op.dst, i, keep, true)
		}
		out = append(out, op)
	}
	return out, stores, loads
}
