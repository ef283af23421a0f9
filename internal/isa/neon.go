package isa

// Neon (Advanced SIMD) instructions on 2x64-bit lanes, for the ARM Neoverse
// model. The paper's Section III-B names Neon explicitly: the hybrid
// intermediate description stays the same and the description table supplies
// Neon realisations — with the famous gap that Neon has no gather, "so the
// underlying implementation is scalar statements". Latencies follow the
// Neoverse N1 software optimization guide.
var neonTable = map[string]*Instr{
	"add.v":  {Name: "add.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"sub.v":  {Name: "sub.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"mul.v":  {Name: "mul.v", Class: VecMul, Width: W128, Latency: 5, Occupancy: 2, Uops: 2, Lanes: 2, Argc: 3},
	"and.v":  {Name: "and.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"orr.v":  {Name: "orr.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"eor.v":  {Name: "eor.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"ushr.v": {Name: "ushr.v", Class: VecShift, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"ushl.v": {Name: "ushl.v", Class: VecShift, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"cmeq.v": {Name: "cmeq.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"bsl.v":  {Name: "bsl.v", Class: VecALU, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 3},
	"tbl.v":  {Name: "tbl.v", Class: VecShuffle, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 2},
	"dup.v":  {Name: "dup.v", Class: VecShuffle, Width: W128, Latency: 2, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 2},
	"ldr.q":  {Name: "ldr.q", Class: Load, Width: W128, Latency: 5, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 2},
	"str.q":  {Name: "str.q", Class: Store, Width: W128, Latency: 1, Occupancy: 1, Uops: 1, Lanes: 2, Argc: 2},
}

// Neon returns the Neon instruction named name.
func Neon(name string) (*Instr, error) { return lookup(neonTable, name, "neon") }

// LookupNeon returns the Neon instruction and whether it exists.
func LookupNeon(name string) (*Instr, bool) { in, ok := neonTable[name]; return in, ok }

// NeonNames returns all Neon mnemonics.
func NeonNames() []string { return names(neonTable) }
