package translator

import (
	"testing"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/voila"
)

// TestBodySizedExactly: for every built-in template at a grid of nodes on
// each SIMD width (spilling nodes and Neon's per-lane gathers included),
// the translated body is allocated at its final length, and the abstract op
// list before spilling is exactly as long as bodyOps predicts, so neither
// slice regrows while the translator fills it.
func TestBodySizedExactly(t *testing.T) {
	tmpls := []*hid.Template{
		hashes.MurmurTemplate(),
		hashes.CRC64Template(),
		engine.ProbeTemplate(32 << 20),
		engine.FilterTemplate(2),
		engine.SumAggTemplate(),
		engine.GroupAggTemplate(64 << 10),
		engine.BuildTemplate(1 << 20),
		engine.BloomTemplate(1 << 20),
		voila.ProbeTemplate(32 << 20),
		voila.FilterTemplate(3),
		voila.AggTemplate(64 << 10),
		voila.TupleTemplate(1 << 20),
		voila.FSMTemplate(),
	}
	spilled := 0
	for _, cpuName := range []string{"silver", "zen", "neoverse"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Width: cpu.NativeWidth(), CPU: cpu}
		for _, tmpl := range tmpls {
			for _, n := range []Node{{0, 1, 1}, {1, 0, 1}, {1, 1, 2}, {2, 3, 4}, {3, 0, 8}, {4, 4, 8}} {
				out, err := Translate(tmpl, n, opt)
				if err != nil {
					t.Fatalf("%s %s@%v: %v", cpuName, tmpl.Name, n, err)
				}
				body := out.Program.Body
				if len(body) != cap(body) {
					t.Errorf("%s %s@%v: body len %d, cap %d", cpuName, tmpl.Name, n, len(body), cap(body))
				}
				want := bodyOps(tmpl, n, opt, int(opt.Width)/64) + loopOps
				if got := len(body) - out.SpillStores - out.SpillLoads; got != want {
					t.Errorf("%s %s@%v: %d ops before spilling, bodyOps predicts %d", cpuName, tmpl.Name, n, got, want)
				}
				if out.SpillStores > 0 {
					spilled++
				}
			}
		}
	}
	if spilled == 0 {
		t.Error("no node of the grid spilled")
	}
}
