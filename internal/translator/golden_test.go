package translator

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hid"
)

var update = flag.Bool("update", false, "rewrite testdata/source.golden from the current translator")

// goldenCase is one operator template at one candidate node.
type goldenCase struct {
	tmpl *hid.Template
	node Node
}

// goldenCases are the six built-in operators at the default sizes hefopt
// uses, each at the pure-scalar, pure-SIMD and a small hybrid node; the
// murmur n(2,2,6) case exceeds the Silver register budget, so it pins the
// spill and reload code too.
func goldenCases() []goldenCase {
	ops := []*hid.Template{
		hashes.MurmurTemplate(),
		hashes.CRC64Template(),
		engine.ProbeTemplate(32 << 20),
		engine.FilterTemplate(2),
		engine.GroupAggTemplate(64 << 10),
		engine.BloomTemplate(1 << 20),
	}
	var cases []goldenCase
	for _, tmpl := range ops {
		for _, n := range []Node{{0, 1, 1}, {1, 0, 1}, {1, 1, 2}} {
			cases = append(cases, goldenCase{tmpl, n})
		}
	}
	return append(cases, goldenCase{hashes.MurmurTemplate(), Node{2, 2, 6}})
}

// TestSourceGolden pins the rendered source text and the per-µop comment
// list of every golden case byte for byte. Run with -update to rewrite the
// golden after an intended change to the rendering.
func TestSourceGolden(t *testing.T) {
	var b bytes.Buffer
	spilled := false
	for _, c := range goldenCases() {
		out, err := Translate(c.tmpl, c.node, Options{})
		if err != nil {
			t.Fatalf("%s@%v: %v", c.tmpl.Name, c.node, err)
		}
		spilled = spilled || out.SpillStores > 0
		fmt.Fprintf(&b, "=== %s %v spills %d/%d\n--- source\n%s--- comments\n",
			c.tmpl.Name, c.node, out.SpillStores, out.SpillLoads, out.Source())
		for i := range out.Program.Body {
			fmt.Fprintln(&b, out.Comment(i))
		}
	}
	if !spilled {
		t.Fatal("no golden case spills; pick a node past the register budget")
	}
	path := filepath.Join("testdata", "source.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("source golden differs at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}
