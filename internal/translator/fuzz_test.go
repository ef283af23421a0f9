package translator

import (
	"testing"

	"hef/internal/hid"
	"hef/internal/isa"
)

// FuzzTranslate drives the translator with fuzzed candidate nodes, widths,
// and template sources. The contract under test: Translate never panics —
// malformed nodes, hostile templates, and bogus widths all come back as
// errors.
func FuzzTranslate(f *testing.F) {
	fixed := `template t u64 (a:stream, tab:random[65536], o:wstream) {
    const m = 0xc6a4a7935bd1e995;
    x = load(a);
    k = mul(x, m);
    g = gather(tab, k);
    h = xor(g, k);
    store(o, h);
}
`
	f.Add(fixed, 1, 1, 3, uint16(512))
	f.Add(fixed, 0, 1, 1, uint16(512))
	f.Add(fixed, 1, 0, 1, uint16(256))
	f.Add(fixed, -1, 5, 0, uint16(128))
	f.Add(fixed, 100, 100, 100, uint16(7))
	f.Add("template e u64 (o:wstream) {\n}\n", 1, 1, 1, uint16(512))
	f.Fuzz(func(t *testing.T, src string, v, s, p int, w uint16) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Translate panicked (node v=%d s=%d p=%d w=%d): %v", v, s, p, w, r)
			}
		}()

		knownOps := func(op string) bool { _, err := isa.Describe(op); return err == nil }
		file, err := hid.Parse(src, knownOps)
		if err != nil {
			// Unparseable source: still exercise the node/width edges on the
			// fixed template so every input tests something.
			if file, err = hid.Parse(fixed, knownOps); err != nil {
				t.Fatalf("fixed template failed to parse: %v", err)
			}
		}
		for _, name := range file.List {
			tmpl, err := file.Get(name)
			if err != nil {
				t.Fatalf("listed template %q missing: %v", name, err)
			}
			node := Node{V: v, S: s, P: p}
			out, err := Translate(tmpl, node, Options{Width: isa.Width(w)})
			if err != nil {
				continue // rejections are the expected path for wild inputs
			}
			if out.Program == nil || len(out.Program.Body) == 0 {
				t.Fatalf("accepted translation of %q at %v has no program", name, node)
			}
			if err := out.Program.Validate(); err != nil {
				t.Fatalf("accepted translation of %q at %v fails validation: %v", name, node, err)
			}
			for i := range out.Program.Body {
				if out.Comment(i) == "" {
					t.Fatalf("accepted translation of %q at %v: µop %d has no comment", name, node, i)
				}
			}
		}
	})
}
