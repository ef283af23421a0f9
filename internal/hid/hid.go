// Package hid implements the paper's hybrid intermediate description: a
// hardware-independent intermediate representation of SIMD and scalar
// statements used "similarly as intrinsic SIMD functions" (Section III-B).
// Operator templates written against this IR are translated by
// internal/translator into concrete mixes of v SIMD and s scalar statements
// replicated into packs of size p.
package hid

import (
	"fmt"
	"maps"
	"sort"
)

// Type enumerates the variable types of Table II.
type Type uint8

const (
	I16 Type = iota
	U16
	I32
	U32
	I64
	U64
	F32
	F64
)

var typeNames = map[Type]string{
	I16: "vint16", U16: "vuint16",
	I32: "vint32", U32: "vuint32",
	I64: "vint64", U64: "vuint64",
	F32: "vfloat", F64: "vdouble",
}

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Bits returns the element width in bits.
func (t Type) Bits() int {
	switch t {
	case I16, U16:
		return 16
	case I32, U32, F32:
		return 32
	default:
		return 64
	}
}

// Bytes returns the element width in bytes.
func (t Type) Bytes() int { return t.Bits() / 8 }

// MemPattern describes how a pointer parameter is accessed, which the
// simulator needs to model the cache behaviour of the workload.
type MemPattern uint8

const (
	// ReadStream is a sequential input column.
	ReadStream MemPattern = iota
	// WriteStream is a sequential output column.
	WriteStream
	// RandomRegion is uniformly random access within Region bytes, e.g. a
	// hash-table probe.
	RandomRegion
)

func (m MemPattern) String() string {
	switch m {
	case ReadStream:
		return "stream"
	case WriteStream:
		return "wstream"
	case RandomRegion:
		return "random"
	}
	return fmt.Sprintf("MemPattern(%d)", uint8(m))
}

// Param is a pointer parameter of an operator template.
type Param struct {
	Name    string
	Pattern MemPattern
	// Region is the byte size of the random-access region; the experiment
	// harness overrides it per scale factor.
	Region uint64
}

// OperandKind tags the three argument kinds of a HID statement.
type OperandKind uint8

const (
	// VarRef names a HID variable defined by an earlier statement.
	VarRef OperandKind = iota
	// ParamRef names a pointer parameter.
	ParamRef
	// ConstRef names a declared constant (unrolled to one scalar and one
	// broadcast vector register, per Section IV-B).
	ConstRef
	// ImmVal is an immediate literal (e.g. a shift count).
	ImmVal
)

// Operand is one argument of a HID statement.
type Operand struct {
	Kind  OperandKind
	Name  string
	Value uint64 // for ImmVal
}

func (o Operand) String() string {
	if o.Kind == ImmVal {
		return fmt.Sprintf("%d", o.Value)
	}
	return o.Name
}

// Var makes a variable operand.
func Var(name string) Operand { return Operand{Kind: VarRef, Name: name} }

// ParamOp makes a parameter operand.
func ParamOp(name string) Operand { return Operand{Kind: ParamRef, Name: name} }

// ConstOp makes a named-constant operand.
func ConstOp(name string) Operand { return Operand{Kind: ConstRef, Name: name} }

// Imm makes an immediate operand.
func Imm(v uint64) Operand { return Operand{Kind: ImmVal, Value: v} }

// Stmt is one hybrid-intermediate-description statement, e.g.
// "k = hi_mul_epi64(data, m)". Op names index the ISA description table.
type Stmt struct {
	// Dst is the defined variable; empty for store.
	Dst string
	// Op is the description-table operation ("load", "mul", "gather", ...).
	Op string
	// Args are the operands. Memory ops take the pointer parameter first.
	Args []Operand
}

func (s Stmt) String() string {
	if s.Dst == "" {
		return fmt.Sprintf("hi_%s(%s)", s.Op, joinOperands(s.Args))
	}
	return fmt.Sprintf("%s = hi_%s(%s)", s.Dst, s.Op, joinOperands(s.Args))
}

func joinOperands(ops []Operand) string {
	out := ""
	for i, o := range ops {
		if i > 0 {
			out += ", "
		}
		out += o.String()
	}
	return out
}

// Template is an operator template: the loop body of a data-parallel
// operator written once in HID, to be expanded into any (v, s, p)
// combination.
type Template struct {
	// Name identifies the operator.
	Name string
	// Elem is the element type processed per lane.
	Elem Type
	// Params are the pointer parameters in declaration order.
	Params []Param
	// Consts maps declared constant names to values.
	Consts map[string]uint64
	// Accs lists accumulator variables: loop-carried values (e.g. an
	// aggregation sum) that may be read before being written in the body.
	// Each statement instance receives its own accumulator instance, as in
	// an unrolled reduction.
	Accs []string
	// Body is the loop body in program order.
	Body []Stmt
}

// Param returns the parameter with the given name.
func (t *Template) Param(name string) (*Param, bool) {
	for i := range t.Params {
		if t.Params[i].Name == name {
			return &t.Params[i], true
		}
	}
	return nil, false
}

// SetRegion overrides the random-region size of a parameter, used by the
// experiment harness to model hash tables of different scale factors.
func (t *Template) SetRegion(param string, bytes uint64) error {
	p, ok := t.Param(param)
	if !ok {
		return fmt.Errorf("hid: template %q has no parameter %q", t.Name, param)
	}
	if p.Pattern != RandomRegion {
		return fmt.Errorf("hid: parameter %q of template %q is not a random region", param, t.Name)
	}
	p.Region = bytes
	return nil
}

// Validate checks the template: operations exist in the description table,
// variables are defined before use, parameters and constants resolve, and
// memory statements address pointer parameters.
func (t *Template) Validate(knownOps func(string) bool) error {
	if t.Name == "" {
		return fmt.Errorf("hid: template has no name")
	}
	if len(t.Body) == 0 {
		return fmt.Errorf("hid: template %q has an empty body", t.Name)
	}
	params := map[string]bool{}
	for _, p := range t.Params {
		if params[p.Name] {
			return fmt.Errorf("hid: template %q: duplicate parameter %q", t.Name, p.Name)
		}
		params[p.Name] = true
	}
	defined := map[string]bool{}
	for _, a := range t.Accs {
		if params[a] {
			return fmt.Errorf("hid: template %q: accumulator %q shadows a parameter", t.Name, a)
		}
		if _, ok := t.Consts[a]; ok {
			return fmt.Errorf("hid: template %q: accumulator %q shadows a constant", t.Name, a)
		}
		defined[a] = true // accumulators may be read before written
	}
	for i, s := range t.Body {
		if !knownOps(s.Op) {
			return fmt.Errorf("hid: template %q stmt %d: unknown op %q", t.Name, i, s.Op)
		}
		for _, a := range s.Args {
			switch a.Kind {
			case VarRef:
				if !defined[a.Name] {
					return fmt.Errorf("hid: template %q stmt %d: variable %q used before definition", t.Name, i, a.Name)
				}
			case ParamRef:
				if !params[a.Name] {
					return fmt.Errorf("hid: template %q stmt %d: unknown parameter %q", t.Name, i, a.Name)
				}
			case ConstRef:
				if _, ok := t.Consts[a.Name]; !ok {
					return fmt.Errorf("hid: template %q stmt %d: unknown constant %q", t.Name, i, a.Name)
				}
			}
		}
		switch s.Op {
		case "load", "gather":
			if len(s.Args) == 0 || s.Args[0].Kind != ParamRef {
				return fmt.Errorf("hid: template %q stmt %d: %s must address a pointer parameter", t.Name, i, s.Op)
			}
			if s.Op == "gather" && len(s.Args) != 2 {
				return fmt.Errorf("hid: template %q stmt %d: gather takes (param, index)", t.Name, i)
			}
			if s.Dst == "" {
				return fmt.Errorf("hid: template %q stmt %d: %s must define a variable", t.Name, i, s.Op)
			}
		case "store":
			if len(s.Args) != 2 || s.Args[0].Kind != ParamRef {
				return fmt.Errorf("hid: template %q stmt %d: store takes (param, value)", t.Name, i)
			}
			if s.Dst != "" {
				return fmt.Errorf("hid: template %q stmt %d: store defines no variable", t.Name, i)
			}
		default:
			if s.Dst == "" {
				return fmt.Errorf("hid: template %q stmt %d: compute op %q must define a variable", t.Name, i, s.Op)
			}
		}
		if s.Dst != "" {
			if params[s.Dst] {
				return fmt.Errorf("hid: template %q stmt %d: %q shadows a parameter", t.Name, i, s.Dst)
			}
			if _, ok := t.Consts[s.Dst]; ok {
				return fmt.Errorf("hid: template %q stmt %d: %q shadows a constant", t.Name, i, s.Dst)
			}
			defined[s.Dst] = true
		}
	}
	return nil
}

// Clone returns a deep copy (so regions can be overridden per experiment
// without mutating shared templates). Every statement's operands share one
// backing slice, each capped at its own length, so appending to one
// statement's Args reallocates it rather than overwriting the next.
func (t *Template) Clone() *Template {
	c := &Template{Name: t.Name, Elem: t.Elem}
	c.Params = append([]Param(nil), t.Params...)
	c.Accs = append([]string(nil), t.Accs...)
	c.Consts = maps.Clone(t.Consts)
	if c.Consts == nil {
		c.Consts = map[string]uint64{}
	}
	n := 0
	for _, s := range t.Body {
		n += len(s.Args)
	}
	args := make([]Operand, 0, n)
	c.Body = make([]Stmt, len(t.Body))
	for i, s := range t.Body {
		c.Body[i] = Stmt{Dst: s.Dst, Op: s.Op}
		if len(s.Args) > 0 {
			start := len(args)
			args = append(args, s.Args...)
			c.Body[i].Args = args[start:len(args):len(args)]
		}
	}
	return c
}

// String renders the template in the hi_* source form of Fig. 6(a).
func (t *Template) String() string {
	out := fmt.Sprintf("template %s(", t.Name)
	for i, p := range t.Params {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s:%s", p.Name, p.Pattern)
	}
	out += ") {\n"
	names := make([]string, 0, len(t.Consts))
	for k := range t.Consts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		out += fmt.Sprintf("  const %s = %#x;\n", k, t.Consts[k])
	}
	for _, s := range t.Body {
		out += "  " + s.String() + ";\n"
	}
	return out + "}\n"
}
