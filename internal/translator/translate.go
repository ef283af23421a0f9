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
	"slices"
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

// Output is the result of translating a template at a node. Its Program
// is the only copy of the body the translator keeps; the text views of it,
// Source and Comment, are rendered only when called.
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

	// tags holds the provenance of each Program.Body µop, which Comment
	// renders.
	tags []tag
	// tmpl and opt are the translation inputs Source and Comment render
	// from.
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

// Comment annotates Program.Body[i] with where it came from: the statement
// instance that emitted it, as the destination variable, "_v_" or "_s_",
// the instance index and the pack ("h1_v_0_p1"; a store has no
// destination), or "spill", "reload" or the loop-control step. Like Source,
// it is rendered only when asked for, from the template as it is at the
// time of the call.
func (o *Output) Comment(i int) string {
	switch t := o.tags[i]; t {
	case tagSpill:
		return "spill"
	case tagReload:
		return "reload"
	case tagOfsAdd:
		return "ofs += elems"
	case tagOfsCmp:
		return "ofs < n"
	case tagLoop:
		return "loop"
	default:
		n := o.Node
		perPack := n.V + n.S
		si, ord := int(t)/(n.P*perPack), int(t)%(n.P*perPack)
		kind, idx := "_v_", ord%perPack
		if idx >= n.V {
			kind, idx = "_s_", idx-n.V
		}
		var dst string
		if si < len(o.tmpl.Body) {
			dst = o.tmpl.Body[si].Dst
		}
		return dst + kind + strconv.Itoa(idx) + "_p" + strconv.Itoa(ord/perPack)
	}
}

// tag is the provenance of one emitted µop: the index of the statement
// instance that emitted it — statement-major, then the instance's ordinal
// in forEachInstance order — or one of the negative codes below for spill
// and loop-control code.
type tag int32

const (
	tagSpill tag = -1 - iota
	tagReload
	tagOfsAdd
	tagOfsCmp
	tagLoop
)

const noVal = -1

// loopOps is the number of loop-control ops closing every body.
const loopOps = 3

// streamPrefetchAheadElems is the prefetch distance, in elements, for
// software prefetches of sequential streams (8 cache lines of 64-bit
// elements).
const streamPrefetchAheadElems = 64

// emitter expands one template at one node into µops over SSA value ids,
// before spill insertion: ops holds each µop with its value ids as register
// numbers, tags its provenance.
type emitter struct {
	tmpl         *hid.Template
	node         Node
	opt          Options
	lanes        int
	elemsPerIter int

	ops      []uarch.UOp
	tags     []tag
	isVector []bool // per value id
	pinned   []bool // per value id (accumulators: never spilled)

	// Each variable (accumulator or statement destination) has a row of
	// vals with one slot per statement instance, in forEachInstance order,
	// holding the instance's current value id (noVal before its first
	// definition); rows maps a variable name to its row.
	rows      map[string]int
	vals      []int32
	instances int // slots per row: p*(v+s)

	// consts are the template's constant names in sorted order;
	// constScalar and constVector hold their value ids.
	consts                   []string
	constScalar, constVector []int32
	// args is per-statement scratch: the vals row of a VarRef argument or
	// the consts index of a ConstRef one.
	args []int
}

func (e *emitter) newVal(vector, pinned bool) int {
	e.isVector = append(e.isVector, vector)
	e.pinned = append(e.pinned, pinned)
	return len(e.isVector) - 1
}

func (e *emitter) emit(u uarch.UOp, t tag) {
	e.ops = append(e.ops, u)
	e.tags = append(e.tags, t)
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
	nOps := bodyOps(tmpl, node, opt, lanes)
	if !opt.NoLoopOverhead {
		nOps += loopOps
	}
	instances := node.P * (node.V + node.S)
	em := &emitter{
		tmpl: tmpl, node: node, opt: opt, lanes: lanes,
		elemsPerIter: node.P * (node.V*lanes + node.S),
		ops:          make([]uarch.UOp, 0, nOps),
		tags:         make([]tag, 0, nOps),
		instances:    instances,
		consts:       sortedConstNames(tmpl),
	}
	// Every value is a constant, an accumulator instance, the loop counter
	// or the destination of one op.
	maxVals := 2*len(em.consts) + len(tmpl.Accs)*instances + nOps + 1
	em.isVector = make([]bool, 0, maxVals)
	em.pinned = make([]bool, 0, maxVals)

	// Constants unroll to exactly one scalar and one vector register each,
	// independent of v, s, and p (Section IV-B). They are loop-invariant:
	// no defining op in the body, so the simulator treats them as
	// always-ready; they still consume architectural registers, accounted
	// for in the spill budgets below.
	// Iterate in sorted name order: map order would renumber the constants'
	// SSA ids from run to run — semantically neutral, but it would make the
	// emitted program (and its content fingerprint) nondeterministic.
	em.constScalar = make([]int32, len(em.consts))
	if node.V > 0 {
		em.constVector = make([]int32, len(em.consts))
	}
	for i := range em.consts {
		em.constScalar[i] = int32(em.newVal(false, true))
		if node.V > 0 {
			em.constVector[i] = int32(em.newVal(true, true))
		}
	}

	em.rows = make(map[string]int, len(tmpl.Accs)+len(tmpl.Body))
	for _, name := range tmpl.Accs {
		em.row(name)
	}
	for i := range tmpl.Body {
		if dst := tmpl.Body[i].Dst; dst != "" {
			em.row(dst)
		}
	}
	em.vals = make([]int32, len(em.rows)*instances)
	for i := range em.vals {
		em.vals[i] = noVal
	}

	// Accumulators are pinned loop-carried registers, one per instance.
	for _, acc := range tmpl.Accs {
		row := em.vals[em.rows[acc]*instances:][:instances]
		ord := 0
		forEachInstance(node, func(k instKey) {
			row[ord] = int32(em.newVal(k.vec, true))
			ord++
		})
	}

	// Expand each HID statement per Algorithm 1 lines 21-25: packs outermost
	// within the statement, vector instances before scalar instances.
	for si := range tmpl.Body {
		if err := em.emitStmt(si); err != nil {
			return nil, err
		}
	}

	// Loop control: offset increment, bound compare, branch (loopOps).
	if !opt.NoLoopOverhead {
		ofs := int16(em.newVal(false, true))
		em.emit(uarch.UOp{Instr: isa.MustScalar("add"), Dst: ofs, Srcs: [3]int16{ofs, uarch.NoReg, uarch.NoReg}}, tagOfsAdd)
		em.emit(uarch.UOp{Instr: isa.MustScalar("cmp"), Dst: uarch.NoReg, Srcs: [3]int16{ofs, uarch.NoReg, uarch.NoReg}}, tagOfsCmp)
		em.emit(uarch.UOp{Instr: isa.MustScalar("jcc"), Dst: uarch.NoReg, Srcs: [3]int16{uarch.NoReg, uarch.NoReg, uarch.NoReg}}, tagLoop)
	}
	numVals := len(em.isVector)

	// Register budgets: both files reserve registers for constants, pointer
	// parameters, the loop counter, and pinned accumulators.
	scalarBudget := opt.CPU.GPRegs - len(em.constScalar) - len(tmpl.Params) - 2
	vectorBudget := opt.CPU.VecRegs - len(em.constVector)
	for id := 0; id < numVals; id++ {
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

	// Value ids are int16 register numbers in uarch.UOp; a node with enough
	// statement instances to overflow that space cannot be represented,
	// only refused (spilling reuses ids, so the count is final here). The
	// µops emitted so far hold truncated ids and are dropped.
	if numVals > math.MaxInt16 {
		return nil, fmt.Errorf("translator: %s@%s needs %d values, exceeding the int16 register id space", tmpl.Name, node, numVals)
	}

	body, tags, stores, loads := insertSpills(em, scalarBudget, vectorBudget)

	prog := &uarch.Program{
		Name:         fmt.Sprintf("%s@%s", tmpl.Name, node),
		Body:         body,
		NumRegs:      numVals,
		ElemsPerIter: em.elemsPerIter,
	}
	if node.V > 0 {
		prog.VectorStatements = node.V
		prog.VectorWidth = opt.Width
	}
	return &Output{
		Program:      prog,
		Node:         node,
		SpillStores:  stores,
		SpillLoads:   loads,
		ElemsPerIter: em.elemsPerIter,
		tags:         tags,
		tmpl:         tmpl,
		opt:          opt,
	}, nil
}

// row returns the vals row of variable name, assigning the next one on
// first sight.
func (e *emitter) row(name string) int {
	r, ok := e.rows[name]
	if !ok {
		r = len(e.rows)
		e.rows[name] = r
	}
	return r
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
	vec  bool
	idx  int
	pack int
}

// forEachInstance visits the pack/vector/scalar instance grid in Algorithm 1
// order (pack outermost, vector instances before scalar ones).
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

// emitStmt lowers every instance of statement si, in forEachInstance order.
// The instruction forms, the addressed parameter and the operands' rows
// are resolved once for the statement, not per instance.
func (e *emitter) emitStmt(si int) error {
	tmpl, stmt := e.tmpl, &e.tmpl.Body[si]
	desc, err := isa.Describe(stmt.Op)
	if err != nil {
		return err
	}
	var vecIn, scalarIn *isa.Instr
	if e.node.V > 0 {
		if vecIn, err = desc.VectorInstr(e.opt.Width); err != nil {
			return fmt.Errorf("translator: %s: lowering %q: %w", tmpl.Name, stmt.Op, err)
		}
	}
	if e.node.S > 0 {
		if scalarIn, err = desc.ScalarInstr(); err != nil {
			return fmt.Errorf("translator: %s: lowering %q: %w", tmpl.Name, stmt.Op, err)
		}
	}

	// A software prefetch of a random region covers the next gather on the
	// same parameter: it must generate the same address stream, so it
	// borrows that gather's seed statement index.
	seedIdx := si
	var param *hid.Param
	switch stmt.Op {
	case "load", "store", "gather", "prefetch":
		param, _ = tmpl.Param(stmt.Args[0].Name)
	}
	if stmt.Op == "prefetch" && param != nil && param.Pattern == hid.RandomRegion {
		for j := si + 1; j < len(tmpl.Body); j++ {
			g := &tmpl.Body[j]
			if g.Op == "gather" && len(g.Args) > 0 && g.Args[0].Name == param.Name {
				seedIdx = j
				break
			}
		}
	}

	e.args = e.args[:0]
	for _, a := range stmt.Args {
		r := noVal
		switch a.Kind {
		case hid.VarRef:
			if row, ok := e.rows[a.Name]; ok {
				r = row
			}
		case hid.ConstRef:
			r, _ = slices.BinarySearch(e.consts, a.Name)
		}
		e.args = append(e.args, r)
	}
	dstRow := noVal
	if stmt.Dst != "" {
		dstRow = e.rows[stmt.Dst]
	}

	ord, base := 0, si*e.instances
	forEachInstance(e.node, func(k instKey) {
		if err == nil {
			in := scalarIn
			if k.vec {
				in = vecIn
			}
			err = e.emitInstance(stmt, seedIdx, param, in, dstRow, k, ord, tag(base+ord))
		}
		ord++
	})
	return err
}

// emitInstance lowers one HID statement instance — the ord-th of
// forEachInstance — to µops lowered to in, tagged t.
func (e *emitter) emitInstance(stmt *hid.Stmt, stmtIdx int, p *hid.Param, in *isa.Instr, dstRow int, k instKey, ord int, t tag) error {
	tmpl, node, lanes := e.tmpl, e.node, e.lanes

	// Resolve register sources.
	srcs := [3]int16{uarch.NoReg, uarch.NoReg, uarch.NoReg}
	nsrc := 0
	addSrc := func(id int) {
		if nsrc < 3 {
			srcs[nsrc] = int16(id)
			nsrc++
		}
	}
	resolve := func(ai int) (int, error) {
		o := &stmt.Args[ai]
		switch o.Kind {
		case hid.VarRef:
			if r := e.args[ai]; r != noVal {
				if id := e.vals[r*e.instances+ord]; id != noVal {
					return int(id), nil
				}
			}
			return 0, fmt.Errorf("translator: %s: no instance value for %q (%+v)", tmpl.Name, o.Name, k)
		case hid.ConstRef:
			if k.vec {
				return int(e.constVector[e.args[ai]]), nil
			}
			return int(e.constScalar[e.args[ai]]), nil
		case hid.ImmVal:
			return noVal, nil
		}
		return 0, fmt.Errorf("translator: %s: operand %v cannot be a register", tmpl.Name, *o)
	}

	op := uarch.UOp{Instr: in, Dst: uarch.NoReg}

	defineDst := func() {
		if dstRow == noVal {
			return
		}
		slot := &e.vals[dstRow*e.instances+ord]
		if id := *slot; id != noVal && e.pinned[id] {
			op.Dst = int16(id) // accumulator: redefine the pinned register
			return
		}
		id := e.newVal(k.vec, false)
		op.Dst = int16(id)
		*slot = int32(id)
	}

	switch stmt.Op {
	case "load":
		op.Addr = uarch.AddrSpec{
			Kind:   uarch.AddrStride,
			Base:   ParamBase(tmpl, p.Name),
			Stride: uint64(tmpl.Elem.Bytes()),
			Offset: uint64(elemOffset(node, lanes, k)),
		}
		defineDst()
	case "store":
		id, err := resolve(1)
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
			op.Addr = uarch.AddrSpec{
				Kind:   uarch.AddrRandom,
				Base:   ParamBase(tmpl, p.Name),
				Region: region,
				Seed:   uint64(stmtIdx)<<21 ^ uint64(k.pack)<<9 ^ uint64(k.idx)<<3 ^ boolBit(k.vec),
				Offset: uint64(elemOffset(node, lanes, k)),
			}
		} else {
			op.Addr = uarch.AddrSpec{
				Kind:   uarch.AddrStride,
				Base:   ParamBase(tmpl, p.Name),
				Stride: uint64(tmpl.Elem.Bytes()),
				Offset: uint64(elemOffset(node, lanes, k)),
			}
		}
	case "gather":
		region := p.Region
		if region == 0 {
			region = 1 << 20
		}
		id, err := resolve(1)
		if err != nil {
			return err
		}
		addSrc(id)
		spec := uarch.AddrSpec{
			Kind:   uarch.AddrRandom,
			Base:   ParamBase(tmpl, p.Name),
			Region: region,
			Seed:   uint64(stmtIdx)<<20 ^ uint64(k.pack)<<10 ^ uint64(k.idx)<<4 ^ boolBit(k.vec),
			Offset: uint64(elemOffset(node, lanes, k)),
		}
		if n := instanceOps(tmpl, *stmt, in, k.vec, lanes); n > 1 {
			// The target ISA has no gather (the paper's Neon example): a
			// vector instance lowers to one scalar load per lane, "multiple
			// scalar instructions ... to achieve the purpose of interface
			// consistency". The last load defines the instance's value.
			op.Srcs = srcs
			for l := 0; l < n; l++ {
				laneOp := op
				laneOp.Addr = spec
				laneOp.Addr.LaneSel = uint8(l)
				id := e.newVal(true, false)
				laneOp.Dst = int16(id)
				if l == n-1 && dstRow != noVal {
					e.vals[dstRow*e.instances+ord] = int32(id)
				}
				e.emit(laneOp, t)
			}
			return nil
		}
		op.Addr = spec
		defineDst()
	case "prefetch":
		spec := uarch.AddrSpec{Base: ParamBase(tmpl, p.Name), Offset: uint64(elemOffset(node, lanes, k))}
		if p.Pattern == hid.RandomRegion {
			// Match the covered gather's address stream exactly (same seed
			// formula, same instance coordinates) and emit one prefetch per
			// lane of the covered gather: a vector instance must prefetch
			// the bucket lines of all of its lanes.
			spec.Kind = uarch.AddrRandom
			spec.Region = p.Region
			spec.Seed = uint64(stmtIdx)<<20 ^ uint64(k.pack)<<10 ^ uint64(k.idx)<<4 ^ boolBit(k.vec)
			n := instanceOps(tmpl, *stmt, in, k.vec, lanes)
			for l := 0; l < n; l++ {
				laneOp := op
				laneOp.Addr = spec
				laneOp.Addr.LaneSel = uint8(l)
				laneOp.Srcs = srcs
				e.emit(laneOp, t)
			}
			return nil
		}
		// Stream prefetches run ahead of the demand accesses (the
		// prefetch distance software engines use), so the lines are
		// resident before the loads arrive.
		spec.Kind = uarch.AddrStride
		spec.Stride = uint64(tmpl.Elem.Bytes())
		spec.Offset += streamPrefetchAheadElems
		op.Addr = spec
	default: // compute ops
		for ai := range stmt.Args {
			id, err := resolve(ai)
			if err != nil {
				return err
			}
			if id != noVal {
				addSrc(id)
			}
		}
		defineDst()
	}
	op.Srcs = srcs
	e.emit(op, t)
	return nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
