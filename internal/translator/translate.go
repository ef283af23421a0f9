// Package translator implements the core component of HEF (Section IV-B,
// Algorithm 1): it translates an operator template written in the hybrid
// intermediate description into concrete code for a candidate node
// (v SIMD statements, s scalar statements, pack size p), using the ISA
// description tables. The output is both a register-allocated instruction
// trace for the microarchitecture simulator (the analogue of the compiled
// binary the paper benchmarks) and a C-like source rendering (the analogue
// of Fig. 6's generated code).
package translator

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/uarch"
)

// Node is one candidate point of the search space: the number of vector and
// scalar statements within a pack, and the pack size p. The paper writes it
// n_{vsp}.
type Node struct {
	V int // SIMD statements per pack
	S int // scalar statements per pack
	P int // pack size
}

func (n Node) String() string { return fmt.Sprintf("n(v=%d,s=%d,p=%d)", n.V, n.S, n.P) }

// Valid reports whether the node lies in the search space (v,s >= 0,
// v+s >= 1, p >= 1).
func (n Node) Valid() bool { return n.V >= 0 && n.S >= 0 && n.V+n.S >= 1 && n.P >= 1 }

// Options configure a translation.
type Options struct {
	// Width is the SIMD width to target; defaults to AVX-512.
	Width isa.Width
	// CPU provides the architectural register budgets; defaults to the
	// Silver 4110 model.
	CPU *isa.CPU
	// NoLoopOverhead omits the loop-control instructions (offset increment,
	// compare, branch) from the emitted body.
	NoLoopOverhead bool
}

// Output is the result of translating a template at a node.
type Output struct {
	// Program is the simulator trace.
	Program *uarch.Program
	// Node echoes the candidate.
	Node Node
	// SpillStores and SpillLoads count the register-pressure spill code the
	// allocator had to insert; non-zero values signal that the node exceeds
	// the register budget (the effect that makes runtime increase past the
	// optimum, Section IV-C).
	SpillStores int
	SpillLoads  int
	// ElemsPerIter is p*(v*lanes + s).
	ElemsPerIter int

	// tmpl and opt are the translation inputs Source renders from.
	tmpl *hid.Template
	opt  Options
}

// Source renders the generated code as C-like text (the Fig. 6 analogue).
// The simulator consumes Program, not this text, so it is rendered only
// when asked for, from the template as it is at the time of the call:
// modifying the template after Translate changes the rendering.
func (o *Output) Source() string {
	return renderSource(o.tmpl, o.Node, o.opt, int(o.opt.Width)/64)
}

// absOp is an abstract instruction over SSA value ids, before spill
// insertion.
type absOp struct {
	instr   *isa.Instr
	dst     int // SSA value id, -1 for none
	srcs    [3]int
	addr    uarch.AddrSpec
	vector  bool // dst/srcs register class
	comment string
}

const noVal = -1

// loopOps is the number of loop-control ops closing every body.
const loopOps = 3

// streamPrefetchAheadElems is the prefetch distance, in elements, for
// software prefetches of sequential streams (8 cache lines of 64-bit
// elements).
const streamPrefetchAheadElems = 64

// emitter accumulates abstract ops and SSA values during expansion.
type emitter struct {
	ops      []absOp
	isVector []bool // per value id
	pinned   []bool // per value id (accumulators: never spilled)
	numVals  int
}

func (e *emitter) newVal(vector, pinned bool) int {
	id := e.numVals
	e.numVals++
	e.isVector = append(e.isVector, vector)
	e.pinned = append(e.pinned, pinned)
	return id
}

// Translate expands tmpl at node per Algorithm 1.
func Translate(tmpl *hid.Template, node Node, opt Options) (*Output, error) {
	if !node.Valid() {
		return nil, fmt.Errorf("translator: invalid node %v", node)
	}
	if opt.Width == 0 {
		opt.Width = isa.W512
	}
	if opt.Width != isa.W512 && opt.Width != isa.W256 && opt.Width != isa.W128 {
		return nil, fmt.Errorf("translator: unsupported SIMD width %d", opt.Width)
	}
	if opt.CPU == nil {
		opt.CPU = isa.XeonSilver4110()
	}
	if err := tmpl.Validate(func(op string) bool {
		_, err := isa.Describe(op)
		return err == nil
	}); err != nil {
		return nil, err
	}

	lanes := int(opt.Width) / 64
	elemsPerIter := node.P * (node.V*lanes + node.S)
	em := &emitter{ops: make([]absOp, 0, bodyOps(tmpl, node, opt, lanes)+loopOps)}

	// Constants unroll to exactly one scalar and one vector register each,
	// independent of v, s, and p (Section IV-B). They are loop-invariant:
	// no defining op in the body, so the simulator treats them as
	// always-ready; they still consume architectural registers, accounted
	// for in the spill budgets below.
	// Iterate in sorted name order: map order would renumber the constants'
	// SSA ids from run to run — semantically neutral, but it would make the
	// emitted program (and its content fingerprint) nondeterministic.
	constScalar := map[string]int{}
	constVector := map[string]int{}
	for _, name := range sortedConstNames(tmpl) {
		constScalar[name] = em.newVal(false, true)
		if node.V > 0 {
			constVector[name] = em.newVal(true, true)
		}
	}

	// Accumulators are pinned loop-carried registers, one per instance.
	accVals := map[instKey]int{}
	for _, acc := range tmpl.Accumulators() {
		forEachInstance(node, func(k instKey) {
			accVals[instKey{acc, k.vec, k.idx, k.pack}] = em.newVal(k.vec, true)
		})
	}

	// vals maps (variable, instance) to its current SSA id.
	vals := map[instKey]int{}
	for k, v := range accVals {
		vals[k] = v
	}

	paramBase := func(name string) uint64 { return ParamBase(tmpl, name) }

	// A software prefetch of a random region covers the next gather on the
	// same parameter: it must generate the same address stream, so it
	// borrows that gather's seed statement index.
	seedIdx := make([]int, len(tmpl.Body))
	for i, stmt := range tmpl.Body {
		seedIdx[i] = i
		if stmt.Op != "prefetch" || len(stmt.Args) == 0 {
			continue
		}
		p, ok := tmpl.Param(stmt.Args[0].Name)
		if !ok || p.Pattern != hid.RandomRegion {
			continue
		}
		for j := i + 1; j < len(tmpl.Body); j++ {
			g := tmpl.Body[j]
			if g.Op == "gather" && len(g.Args) > 0 && g.Args[0].Name == p.Name {
				seedIdx[i] = j
				break
			}
		}
	}

	// Expand each HID statement per Algorithm 1 lines 21-25: packs outermost
	// within the statement, vector instances before scalar instances.
	for si, stmt := range tmpl.Body {
		var err error
		forEachInstance(node, func(k instKey) {
			if err != nil {
				return
			}
			err = emitInstance(em, tmpl, stmt, seedIdx[si], k, node, opt, lanes, elemsPerIter, vals, constScalar, constVector, paramBase)
		})
		if err != nil {
			return nil, err
		}
	}

	// Loop control: offset increment, bound compare, branch (loopOps).
	if !opt.NoLoopOverhead {
		ofs := em.newVal(false, true)
		em.ops = append(em.ops,
			absOp{instr: isa.MustScalar("add"), dst: ofs, srcs: [3]int{ofs, noVal, noVal}, comment: "ofs += elems"},
			absOp{instr: isa.MustScalar("cmp"), dst: noVal, srcs: [3]int{ofs, noVal, noVal}, comment: "ofs < n"},
			absOp{instr: isa.MustScalar("jcc"), dst: noVal, srcs: [3]int{noVal, noVal, noVal}, comment: "loop"},
		)
	}

	// Register budgets: both files reserve registers for constants, pointer
	// parameters, the loop counter, and pinned accumulators.
	scalarBudget := opt.CPU.GPRegs - len(constScalar) - len(tmpl.Params) - 2
	vectorBudget := opt.CPU.VecRegs - len(constVector)
	for id := 0; id < em.numVals; id++ {
		if em.pinned[id] {
			if em.isVector[id] {
				vectorBudget--
			} else {
				scalarBudget--
			}
		}
	}
	const minBudget = 4
	if scalarBudget < minBudget {
		scalarBudget = minBudget
	}
	if vectorBudget < minBudget {
		vectorBudget = minBudget
	}

	// Value ids become int16 register numbers in uarch.UOp; a node with
	// enough statement instances to overflow that space cannot be
	// represented, only refused (spilling reuses ids, so the count is
	// final here).
	if em.numVals > math.MaxInt16 {
		return nil, fmt.Errorf("translator: %s@%s needs %d values, exceeding the int16 register id space", tmpl.Name, node, em.numVals)
	}

	ops, stores, loads := insertSpills(em, scalarBudget, vectorBudget)

	prog := &uarch.Program{
		Name:         fmt.Sprintf("%s@%s", tmpl.Name, node),
		NumRegs:      em.numVals,
		ElemsPerIter: elemsPerIter,
	}
	if node.V > 0 {
		prog.VectorStatements = node.V
		prog.VectorWidth = opt.Width
	}
	prog.Body = make([]uarch.UOp, len(ops))
	for j, op := range ops {
		u := uarch.UOp{Instr: op.instr, Dst: int16(op.dst), Addr: op.addr, Comment: op.comment}
		if op.dst == noVal {
			u.Dst = uarch.NoReg
		}
		for i, s := range op.srcs {
			if s == noVal {
				u.Srcs[i] = uarch.NoReg
			} else {
				u.Srcs[i] = int16(s)
			}
		}
		prog.Body[j] = u
	}
	return &Output{
		Program:      prog,
		Node:         node,
		SpillStores:  stores,
		SpillLoads:   loads,
		ElemsPerIter: elemsPerIter,
		tmpl:         tmpl,
		opt:          opt,
	}, nil
}

// sortedConstNames returns the template's constant names in sorted order —
// the canonical iteration order for everything derived from the Consts map.
func sortedConstNames(tmpl *hid.Template) []string {
	names := make([]string, 0, len(tmpl.Consts))
	for name := range tmpl.Consts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParamBase returns the virtual base address the translator assigns to a
// pointer parameter of the template — the address the experiment harness
// warms in the cache hierarchy before timing a stage.
func ParamBase(tmpl *hid.Template, name string) uint64 {
	for i := range tmpl.Params {
		if tmpl.Params[i].Name == name {
			return uint64(i+1) << 32
		}
	}
	return 0
}

// MustTranslate panics on error, for statically-known templates and nodes.
func MustTranslate(tmpl *hid.Template, node Node, opt Options) *Output {
	out, err := Translate(tmpl, node, opt)
	if err != nil {
		panic(fmt.Sprintf("translator: MustTranslate(%s, %s): %v", tmpl.Name, node, err))
	}
	return out
}

// bodyOps counts the abstract ops the statement expansion emits: the sum
// of instanceOps over every statement instance.
func bodyOps(tmpl *hid.Template, node Node, opt Options, lanes int) int {
	n := 0
	for _, stmt := range tmpl.Body {
		vecOps := 1
		if desc, err := isa.Describe(stmt.Op); err == nil {
			if in, err := desc.VectorInstr(opt.Width); err == nil {
				vecOps = instanceOps(tmpl, stmt, in, true, lanes)
			}
		}
		n += node.P * (node.V*vecOps + node.S*instanceOps(tmpl, stmt, nil, false, lanes))
	}
	return n
}

// instanceOps is the number of abstract ops emitInstance emits for one
// instance of stmt lowered to in: one per lane for a vector instance of a
// gather the target has no vector form of (in.Lanes == 1) or of a
// random-region prefetch, else one.
func instanceOps(tmpl *hid.Template, stmt hid.Stmt, in *isa.Instr, vec bool, lanes int) int {
	if !vec {
		return 1
	}
	switch stmt.Op {
	case "gather":
		if in.Lanes == 1 {
			return lanes
		}
	case "prefetch":
		if p, ok := tmpl.Param(stmt.Args[0].Name); ok && p.Pattern == hid.RandomRegion {
			return lanes
		}
	}
	return 1
}

// instKey identifies one statement instance: vector-or-scalar, the instance
// index within the pack, and the pack index.
type instKey struct {
	name string
	vec  bool
	idx  int
	pack int
}

// forEachInstance visits the pack/vector/scalar instance grid in Algorithm 1
// order (pack outermost, vector instances before scalar ones). The name field
// of the visited key is empty; callers fill it per variable.
func forEachInstance(node Node, f func(instKey)) {
	for j := 0; j < node.P; j++ {
		for k := 0; k < node.V; k++ {
			f(instKey{vec: true, idx: k, pack: j})
		}
		for n := 0; n < node.S; n++ {
			f(instKey{vec: false, idx: n, pack: j})
		}
	}
}

// elemOffset returns the element offset of an instance within one iteration,
// matching Fig. 6: packs are laid out contiguously, vector instances first.
func elemOffset(node Node, lanes int, k instKey) int {
	packStride := node.V*lanes + node.S
	off := k.pack * packStride
	if k.vec {
		return off + k.idx*lanes
	}
	return off + node.V*lanes + k.idx
}

// emitInstance lowers one HID statement instance to an abstract op.
func emitInstance(
	em *emitter, tmpl *hid.Template, stmt hid.Stmt, stmtIdx int, k instKey,
	node Node, opt Options, lanes, elemsPerIter int,
	vals map[instKey]int, constScalar, constVector map[string]int,
	paramBase func(string) uint64,
) error {
	desc, err := isa.Describe(stmt.Op)
	if err != nil {
		return err
	}
	var in *isa.Instr
	if k.vec {
		in, err = desc.VectorInstr(opt.Width)
	} else {
		in, err = desc.ScalarInstr()
	}
	if err != nil {
		return fmt.Errorf("translator: %s: lowering %q: %w", tmpl.Name, stmt.Op, err)
	}

	// Resolve register sources.
	srcs := [3]int{noVal, noVal, noVal}
	nsrc := 0
	addSrc := func(id int) {
		if nsrc < 3 {
			srcs[nsrc] = id
			nsrc++
		}
	}
	resolve := func(o hid.Operand) (int, error) {
		switch o.Kind {
		case hid.VarRef:
			id, ok := vals[instKey{o.Name, k.vec, k.idx, k.pack}]
			if !ok {
				return 0, fmt.Errorf("translator: %s: no instance value for %q (%+v)", tmpl.Name, o.Name, k)
			}
			return id, nil
		case hid.ConstRef:
			if k.vec {
				return constVector[o.Name], nil
			}
			return constScalar[o.Name], nil
		case hid.ImmVal:
			return noVal, nil
		}
		return 0, fmt.Errorf("translator: %s: operand %v cannot be a register", tmpl.Name, o)
	}

	kind := "_s_"
	if k.vec {
		kind = "_v_"
	}
	op := absOp{instr: in, dst: noVal, vector: k.vec,
		comment: stmt.Dst + kind + strconv.Itoa(k.idx) + "_p" + strconv.Itoa(k.pack)}

	defineDst := func() {
		if stmt.Dst == "" {
			return
		}
		key := instKey{stmt.Dst, k.vec, k.idx, k.pack}
		if id, ok := vals[key]; ok && em.pinned[id] {
			op.dst = id // accumulator: redefine the pinned register
			return
		}
		op.dst = em.newVal(k.vec, false)
		vals[key] = op.dst
	}

	switch stmt.Op {
	case "load":
		p, _ := tmpl.Param(stmt.Args[0].Name)
		op.addr = uarch.AddrSpec{
			Kind:   uarch.AddrStride,
			Base:   paramBase(p.Name),
			Stride: uint64(tmpl.Elem.Bytes()),
			Offset: uint64(elemOffset(node, lanes, k)),
		}
		defineDst()
	case "store":
		p, _ := tmpl.Param(stmt.Args[0].Name)
		id, err := resolve(stmt.Args[1])
		if err != nil {
			return err
		}
		addSrc(id)
		if p.Pattern == hid.RandomRegion {
			// Scatter into a randomly-addressed region (e.g. a group-by
			// table update).
			region := p.Region
			if region == 0 {
				region = 1 << 20
			}
			op.addr = uarch.AddrSpec{
				Kind:   uarch.AddrRandom,
				Base:   paramBase(p.Name),
				Region: region,
				Seed:   uint64(stmtIdx)<<21 ^ uint64(k.pack)<<9 ^ uint64(k.idx)<<3 ^ boolBit(k.vec),
				Offset: uint64(elemOffset(node, lanes, k)),
			}
		} else {
			op.addr = uarch.AddrSpec{
				Kind:   uarch.AddrStride,
				Base:   paramBase(p.Name),
				Stride: uint64(tmpl.Elem.Bytes()),
				Offset: uint64(elemOffset(node, lanes, k)),
			}
		}
	case "gather":
		p, _ := tmpl.Param(stmt.Args[0].Name)
		region := p.Region
		if region == 0 {
			region = 1 << 20
		}
		id, err := resolve(stmt.Args[1])
		if err != nil {
			return err
		}
		addSrc(id)
		spec := uarch.AddrSpec{
			Kind:   uarch.AddrRandom,
			Base:   paramBase(p.Name),
			Region: region,
			Seed:   uint64(stmtIdx)<<20 ^ uint64(k.pack)<<10 ^ uint64(k.idx)<<4 ^ boolBit(k.vec),
			Offset: uint64(elemOffset(node, lanes, k)),
		}
		if n := instanceOps(tmpl, stmt, in, k.vec, lanes); n > 1 {
			// The target ISA has no gather (the paper's Neon example): a
			// vector instance lowers to one scalar load per lane, "multiple
			// scalar instructions ... to achieve the purpose of interface
			// consistency". The last load defines the instance's value.
			op.srcs = srcs
			for l := 0; l < n; l++ {
				laneOp := op
				laneSpec := spec
				laneSpec.LaneSel = uint8(l)
				laneOp.addr = laneSpec
				laneOp.dst = em.newVal(true, false)
				if l == n-1 && stmt.Dst != "" {
					vals[instKey{stmt.Dst, k.vec, k.idx, k.pack}] = laneOp.dst
				}
				em.ops = append(em.ops, laneOp)
			}
			return nil
		}
		op.addr = spec
		defineDst()
	case "prefetch":
		p, _ := tmpl.Param(stmt.Args[0].Name)
		region := p.Region
		spec := uarch.AddrSpec{Base: paramBase(p.Name), Offset: uint64(elemOffset(node, lanes, k))}
		if p.Pattern == hid.RandomRegion {
			// Match the covered gather's address stream exactly (same seed
			// formula, same instance coordinates) and emit one prefetch per
			// lane of the covered gather: a vector instance must prefetch
			// the bucket lines of all of its lanes.
			spec.Kind = uarch.AddrRandom
			spec.Region = region
			spec.Seed = uint64(stmtIdx)<<20 ^ uint64(k.pack)<<10 ^ uint64(k.idx)<<4 ^ boolBit(k.vec)
			n := instanceOps(tmpl, stmt, in, k.vec, lanes)
			for l := 0; l < n; l++ {
				laneSpec := spec
				laneSpec.LaneSel = uint8(l)
				laneOp := op
				laneOp.addr = laneSpec
				laneOp.srcs = srcs
				em.ops = append(em.ops, laneOp)
			}
			return nil
		}
		// Stream prefetches run ahead of the demand accesses (the
		// prefetch distance software engines use), so the lines are
		// resident before the loads arrive.
		spec.Kind = uarch.AddrStride
		spec.Stride = uint64(tmpl.Elem.Bytes())
		spec.Offset += streamPrefetchAheadElems
		op.addr = spec
	default: // compute ops
		for _, a := range stmt.Args {
			id, err := resolve(a)
			if err != nil {
				return err
			}
			if id != noVal {
				addSrc(id)
			}
		}
		defineDst()
	}
	op.srcs = srcs
	em.ops = append(em.ops, op)
	return nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
