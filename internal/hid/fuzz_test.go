package hid

import (
	"strings"
	"testing"
)

// knownOpsForFuzz mirrors the description table's operation list without
// importing internal/isa (hid must stay dependency-free below isa).
var fuzzOps = map[string]bool{
	"add": true, "sub": true, "mul": true, "and": true, "or": true,
	"xor": true, "srl": true, "srlv": true, "sll": true, "cmpeq": true,
	"cmpgt": true, "cmplt": true, "select": true, "compress": true,
	"broadcast": true, "load": true, "store": true, "gather": true,
	"prefetch": true,
}

func knownOpsForFuzz(op string) bool { return fuzzOps[op] }

// FuzzParse feeds arbitrary text to the operator-template parser; it must
// reject garbage with an error, never a panic, and anything it accepts must
// round-trip through Get.
func FuzzParse(f *testing.F) {
	f.Add("template t u64 (a:stream, o:wstream) {\n x = load(a);\n store(o, x);\n}\n")
	f.Add("template x u32 (p:random[64]) {\n}\n")
	f.Add("# comment only\n")
	f.Add("template t u64 (a:stream) {\n x = mul(a, a);\n")
	f.Fuzz(func(t *testing.T, src string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %q: %v", src, r)
			}
		}()
		file, err := Parse(src, knownOpsForFuzz)
		if err != nil {
			return
		}
		for _, name := range file.List {
			if _, err := file.Get(name); err != nil {
				t.Fatalf("listed template %q not in dict: %v", name, err)
			}
			if strings.TrimSpace(name) == "" {
				t.Fatalf("accepted unnamed template in %q", src)
			}
		}
	})
}
