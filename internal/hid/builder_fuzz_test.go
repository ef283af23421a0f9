package hid_test

import (
	"testing"

	"hef/internal/hid/hidgen"
	"hef/internal/isa"
)

// FuzzBuilderBuild drives the template builder with operand wiring derived
// from arbitrary bytes (see hidgen.Build) and asserts the Build edge never
// panics: it either returns a valid template or a descriptive error.
func FuzzBuilderBuild(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x23, 0xff}, "nm", uint64(3))
	f.Add([]byte{0x41, 0x42}, "", uint64(0))
	f.Add([]byte{0x90, 0x91, 0x92, 0x93, 0x94, 0x95}, "op", uint64(1<<40))
	knownOps := func(op string) bool { _, err := isa.Describe(op); return err == nil }
	f.Fuzz(func(t *testing.T, prog []byte, name string, c uint64) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Builder.Build panicked: %v", r)
			}
		}()
		tmpl, err := hidgen.Build(prog, name, c, knownOps)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if tmpl.Name == "" && name != "" {
			t.Fatalf("template lost its name %q", name)
		}
		if len(tmpl.Body) == 0 {
			t.Fatal("accepted template has an empty body")
		}
	})
}
