package translator

import (
	"slices"

	"hef/internal/isa"
	"hef/internal/uarch"
)

// stackBase is the virtual address of the spill area. It is small and hot,
// so spills mostly hit the L1 cache — their cost is the extra instructions
// and the store/load latency, which is exactly the "register and cache data
// swapping" effect the paper attributes to oversized packs.
const stackBase = uint64(0xF) << 40

// The spill-code instructions. Vector values spill through the AVX-512
// forms whatever the target width.
var (
	spillStore       = isa.MustScalar("movq.st")
	spillLoad        = isa.MustScalar("movq")
	vectorSpillStore = isa.MustAVX512("vmovdqu64.st")
	vectorSpillLoad  = isa.MustAVX512("vmovdqu64")
)

// spillOp is one piece of spill code: a store or reload of value id,
// inserted before the emitted op at index pos.
type spillOp struct {
	pos    int32
	id     int32
	reload bool
}

// insertSpills inserts stack stores and reloads into the emitted ops so that
// at no point more than scalarBudget scalar (or vectorBudget vector)
// non-pinned values are live in registers, using a furthest-next-use
// eviction policy. A node that needs no spill code returns em.ops and
// em.tags themselves; otherwise the spill code is merged in once, into a
// body and tag list of exactly the final length.
func insertSpills(em *emitter, scalarBudget, vectorBudget int) (body []uarch.UOp, tags []tag, stores, loads int) {
	ops := em.ops
	numVals := len(em.isVector)

	// Use positions per value, in compressed-row form: the uses of id are
	// uses[start[id]:start[id+1]] in op order, and next[id] indexes the
	// first of them not yet passed.
	start := make([]int32, numVals+1)
	for i := range ops {
		for _, s := range ops[i].Srcs {
			if s != uarch.NoReg {
				start[s+1]++
			}
		}
	}
	for id := 0; id < numVals; id++ {
		start[id+1] += start[id]
	}
	uses := make([]int32, start[numVals])
	next := slices.Clone(start[:numVals])
	for i := range ops {
		for _, s := range ops[i].Srcs {
			if s != uarch.NoReg {
				uses[next[s]] = int32(i)
				next[s]++
			}
		}
	}
	copy(next, start)

	// nextUse returns the next op index at which id is used at or after
	// pos, or -1.
	nextUse := func(id, pos int) int32 {
		p, end := next[id], start[id+1]
		for p < end && uses[p] < int32(pos) {
			p++
		}
		next[id] = p
		if p == end {
			return -1
		}
		return uses[p]
	}

	// resident[c] lists the values of class c (0 scalar, 1 vector) held in
	// registers, in id order: the victim choice (and with it the emitted
	// spill code) must not depend on the order values entered registers.
	var resident [2][]int
	resident[0] = make([]int, 0, scalarBudget+3)
	resident[1] = make([]int, 0, vectorBudget+3)
	inReg := make([]bool, numVals)
	inMem := make([]bool, numVals)
	budget := [2]int{scalarBudget, vectorBudget}
	var spills []spillOp

	classOf := func(id int) int {
		if em.isVector[id] {
			return 1
		}
		return 0
	}
	enter := func(id int) {
		c := classOf(id)
		i, _ := slices.BinarySearch(resident[c], id)
		resident[c] = slices.Insert(resident[c], i, id)
		inReg[id] = true
	}
	leave := func(id int) {
		c := classOf(id)
		i, _ := slices.BinarySearch(resident[c], id)
		resident[c] = slices.Delete(resident[c], i, i+1)
		inReg[id] = false
	}

	// evictOne frees a register of class c, preferring the value whose next
	// use is furthest away, the lowest id among equals; keep lists the
	// values that must stay resident.
	evictOne := func(c, pos int, keep [3]int16) bool {
		victim, victimNext := -1, int32(-2)
		for _, id := range resident[c] {
			if int16(id) == keep[0] || int16(id) == keep[1] || int16(id) == keep[2] {
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
			spills = append(spills, spillOp{pos: int32(pos), id: int32(victim)})
			stores++
			inMem[victim] = true
		}
		leave(victim)
		return true
	}

	// ensure brings id into a register before position pos; defining marks a
	// fresh definition (no reload needed).
	ensure := func(id, pos int, keep [3]int16, defining bool) {
		if em.pinned[id] {
			return // pinned values have reserved registers
		}
		if inReg[id] {
			if defining {
				inMem[id] = false // redefinition invalidates the stack copy
			}
			return
		}
		c := classOf(id)
		for len(resident[c]) >= budget[c] {
			if !evictOne(c, pos, keep) {
				break // everything is kept; allow transient overflow
			}
		}
		if !defining && inMem[id] {
			spills = append(spills, spillOp{pos: int32(pos), id: int32(id), reload: true})
			loads++
		}
		enter(id)
		if defining {
			inMem[id] = false
		}
	}

	for i := range ops {
		op := &ops[i]
		keep := op.Srcs
		for _, s := range op.Srcs {
			if s != uarch.NoReg {
				ensure(int(s), i, keep, false)
			}
		}
		// Drop sources that die at this op.
		for _, s := range op.Srcs {
			if s != uarch.NoReg && inReg[s] && nextUse(int(s), i+1) == -1 {
				leave(int(s))
			}
		}
		if op.Dst != uarch.NoReg {
			ensure(int(op.Dst), i, keep, true)
		}
	}
	if len(spills) == 0 {
		return ops, em.tags, 0, 0
	}

	body = make([]uarch.UOp, 0, len(ops)+len(spills))
	tags = make([]tag, 0, len(ops)+len(spills))
	done := 0
	for _, sp := range spills {
		body = append(body, ops[done:sp.pos]...)
		tags = append(tags, em.tags[done:sp.pos]...)
		done = int(sp.pos)
		id := int(sp.id)
		u := uarch.UOp{Dst: uarch.NoReg, Srcs: [3]int16{uarch.NoReg, uarch.NoReg, uarch.NoReg},
			Addr: uarch.AddrSpec{Kind: uarch.AddrStack, Base: stackBase, Offset: uint64(id) * 8}}
		t := tagSpill
		switch {
		case sp.reload && em.isVector[id]:
			u.Instr, u.Dst, t = vectorSpillLoad, int16(id), tagReload
		case sp.reload:
			u.Instr, u.Dst, t = spillLoad, int16(id), tagReload
		case em.isVector[id]:
			u.Instr, u.Srcs[0] = vectorSpillStore, int16(id)
		default:
			u.Instr, u.Srcs[0] = spillStore, int16(id)
		}
		body = append(body, u)
		tags = append(tags, t)
	}
	body = append(body, ops[done:]...)
	tags = append(tags, em.tags[done:]...)
	return body, tags, stores, loads
}
