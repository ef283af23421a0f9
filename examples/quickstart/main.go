// Quickstart: write an operator once in the hybrid intermediate
// description, let HEF find the optimal mix of SIMD and scalar statements
// for a target processor, and inspect the generated code.
package main

import (
	"fmt"
	"log"

	"hef"
)

func main() {
	// A framework instance targets one processor model. "silver" is the
	// Xeon Silver 4110 (one AVX-512 unit per core); "gold" is the Gold
	// 6240R (two units).
	fw, err := hef.New("silver")
	if err != nil {
		log.Fatal(err)
	}

	// The operator: a fused multiply-xor kernel over a 64-bit column,
	// written once against the hybrid intermediate description. The
	// framework decides how many SIMD and scalar statement instances to
	// emit and how deeply to pack them.
	b := hef.NewTemplate("mulxor", hef.U64)
	in := b.Stream("in", hef.ReadStream)
	out := b.Stream("out", hef.WriteStream)
	m := b.Const("m", 0x9e3779b97f4a7c15)
	x := b.Load("x", in)
	y := b.Mul("y", x, m)
	z := b.Srl("z", y, 29)
	w := b.Xor("w", y, z)
	b.Store(out, w)
	tmpl, err := b.Build(hef.KnownOp)
	if err != nil {
		log.Fatal(err)
	}

	// The offline phase: the candidate generator derives an initial
	// (v, s, p) node from pipe counts and instruction latency/throughput
	// tables, then the pruning search walks to the optimum, testing each
	// candidate on the microarchitecture simulator.
	opt, err := fw.OptimizeOperator(tmpl)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("operator:            %s\n", tmpl.Name)
	fmt.Printf("initial candidate:   %v\n", opt.Initial)
	fmt.Printf("optimal node:        %v\n", opt.Node)
	fmt.Printf("cost at optimum:     %.3f ns/element\n", opt.SecondsPerElem()*1e9)
	fmt.Printf("search effort:       %d of %d nodes tested (%.0f%% pruned)\n",
		opt.Search.Tested, opt.Search.SpaceSize, opt.Search.PrunedFraction()*100)
	fmt.Printf("\ngenerated code:\n%s", opt.Source())
}
