package translator

import (
	"runtime"
	"testing"
	"unsafe"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/uarch"
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

// TestTranslateAllocs: translating a node that never spills (murmur
// n(1,1,2) on silver, 55 instructions) allocates its body once plus a small
// fixed overhead — no second or third copy of the body, no per-instruction
// strings and no maps grown per instance. A translator that copied the
// body three times allocated 28.6 KB in 141 allocations per call here.
func TestTranslateAllocs(t *testing.T) {
	tmpl := hashes.MurmurTemplate()
	opt := Options{CPU: isa.XeonSilver4110()}
	node := Node{V: 1, S: 1, P: 2}
	out := MustTranslate(tmpl, node, opt)
	if out.SpillStores+out.SpillLoads != 0 {
		t.Fatalf("murmur@%v spills %d/%d; the bound is for a node that does not", node, out.SpillStores, out.SpillLoads)
	}
	const calls = 64
	const overhead = 4 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		MustTranslate(tmpl, node, opt)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	mallocs := (after.Mallocs - before.Mallocs) / calls
	body := uint64(len(out.Program.Body)) * uint64(unsafe.Sizeof(uarch.UOp{}))
	t.Logf("murmur@%v: %d bytes and %d allocations per call, body %d bytes", node, perCall, mallocs, body)
	if perCall > body+overhead {
		t.Errorf("Translate allocates %d bytes per call, want at most the %d-byte body plus %d", perCall, body, overhead)
	}
}

// BenchmarkTranslate translates hefopt's six operators at a non-spilling
// hybrid node and at a spilling one, on silver.
func BenchmarkTranslate(b *testing.B) {
	tmpls := []*hid.Template{
		hashes.MurmurTemplate(),
		hashes.CRC64Template(),
		engine.ProbeTemplate(32 << 20),
		engine.FilterTemplate(2),
		engine.GroupAggTemplate(64 << 10),
		engine.BloomTemplate(1 << 20),
	}
	opt := Options{CPU: isa.XeonSilver4110()}
	for _, n := range []Node{{1, 1, 2}, {2, 2, 6}} {
		b.Run(n.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tmpl := range tmpls {
					if _, err := Translate(tmpl, n, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
