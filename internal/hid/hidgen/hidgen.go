// Package hidgen derives operator templates from arbitrary bytes, so fuzz
// targets in several packages draw from one generator of varied templates.
package hidgen

import "hef/internal/hid"

// Build interprets prog as a little program over hid.Builder and returns
// the built template, or Build's error for wiring it rejects. The template
// has a read stream "in", a random-region table "tab" of 64 KiB, a constant
// "c" = c, and a write stream "out" storing the last value. Each byte of
// prog (at most eight) adds one statement: its low bits pick the operation
// (load, gather, a binary op, a shift, or a select; one binary op name,
// "frob", is unknown to every description table), and its nibbles pick
// which earlier values feed it.
func Build(prog []byte, name string, c uint64, knownOps func(string) bool) (*hid.Template, error) {
	b := hid.NewTemplate(name, hid.U64)
	in := b.Stream("in", hid.ReadStream)
	tab := b.Table("tab", 1<<16)
	con := b.Const("c", c)
	vals := []hid.Operand{in, tab, con}
	names := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	binOps := []string{"add", "sub", "mul", "and", "or", "xor", "cmpeq", "frob"}

	for i, op := range prog {
		if i >= len(names) {
			break
		}
		x := vals[int(op>>4)%len(vals)]
		y := vals[int(op&0x0f)%len(vals)]
		var v hid.Operand
		switch int(op) % 5 {
		case 0:
			v = b.Load(names[i], x)
		case 1:
			v = b.Gather(names[i], tab, y)
		case 2:
			v = b.Op(names[i], binOps[int(op>>2)%len(binOps)], x, y)
		case 3:
			v = b.Srl(names[i], x, uint64(op))
		default:
			v = b.Select(names[i], x, y, con)
		}
		vals = append(vals, v)
	}
	out := b.Stream("out", hid.WriteStream)
	b.Store(out, vals[len(vals)-1])
	return b.Build(knownOps)
}
