package memo

import (
	"encoding/hex"
	"runtime"
	"testing"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
)

// goldenCase is one (template, node) pair whose translation and keys are
// pinned on silver at the default width.
type goldenCase struct {
	name   string
	tmpl   *hid.Template
	node   translator.Node
	instrs int // instructions in the translated body
	// fingerprint is Fingerprint(ProtoEvaluator, silver, nil, prog, 64,
	// warm); translation is the link prefix NewLinkKeyer(ProtoEvaluator,
	// silver, nil).Prefix(tmpl, W512, 2048). Both in hex.
	fingerprint, translation string
}

var goldenCases = []goldenCase{
	{
		name: "probe n(1,1,3)", tmpl: engine.ProbeTemplate(1 << 20), node: translator.Node{V: 1, S: 1, P: 3},
		instrs:      81,
		fingerprint: "6d94d59f6ce70777f4d02ca16a7b424e",
		translation: "bcf20c82e7f6af6d03341df9cbc0bf96",
	},
	{
		// Over 500 KB of encoding: a streamed encoder spills it many times.
		name: "crc64 n(5,5,5)", tmpl: hashes.CRC64Template(), node: translator.Node{V: 5, S: 5, P: 5},
		instrs:      3196,
		fingerprint: "17209345da841fe078d2c9ee8dffadfa",
		translation: "563529a41caa6cf9d5c324d2ffd05f07",
	},
}

// TestFingerprintGolden pins the bytes of the measurement keys and link
// prefixes. TestFingerprintStable and TestFingerprintSeparates only compare keys
// with each other, so an encoding change that moved every key alike would
// pass them and silently orphan every persisted memo store. A mismatch here
// is such a change: the test prints the new value, but update the golden
// only for an intended format change.
func TestFingerprintGolden(t *testing.T) {
	// The hand-built two-instruction program of baseKey, independent of the
	// translator.
	if k := baseKey(); hex.EncodeToString(k[:]) != "b9456d939f6578f59fe95cb8d9cf5b71" {
		t.Errorf("Fingerprint of the small program = %x, golden b9456d939f6578f59fe95cb8d9cf5b71", k)
	}
	cpu := isa.XeonSilver4110()
	for _, c := range goldenCases {
		out, err := translator.Translate(c.tmpl, c.node, translator.Options{CPU: cpu})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := len(out.Program.Body); n != c.instrs {
			t.Errorf("%s: translated body has %d instructions, want %d", c.name, n, c.instrs)
		}
		var warm []WarmRange
		for _, p := range c.tmpl.Params {
			if p.Pattern == hid.RandomRegion {
				warm = append(warm, WarmRange{Base: translator.ParamBase(c.tmpl, p.Name), Region: p.Region})
			}
		}
		fp := Fingerprint(ProtoEvaluator, cpu, nil, out.Program, 64, warm)
		if got := hex.EncodeToString(fp[:]); got != c.fingerprint {
			t.Errorf("%s: Fingerprint = %s, golden %s", c.name, got, c.fingerprint)
		}
		tk := NewLinkKeyer(ProtoEvaluator, cpu, nil).Prefix(c.tmpl, isa.W512, 2048)
		if got := hex.EncodeToString(tk[:]); got != c.translation {
			t.Errorf("%s: link prefix = %s, golden %s", c.name, got, c.translation)
		}
	}
}

// TestFingerprintStreamsLargeProgram: keying the 3,196-instruction crc64
// program holds a few KB of encoding at a time, not its whole encoding
// (over 500 KB): one Fingerprint call allocates at most 16 KB.
func TestFingerprintStreamsLargeProgram(t *testing.T) {
	cpu := isa.XeonSilver4110()
	c := goldenCases[1]
	out, err := translator.Translate(c.tmpl, c.node, translator.Options{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	warm := []WarmRange{{Base: 1 << 32, Region: 1 << 20}}
	Fingerprint(ProtoEvaluator, cpu, nil, out.Program, 64, warm)
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		Fingerprint(ProtoEvaluator, cpu, nil, out.Program, 64, warm)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 16<<10 {
		t.Errorf("Fingerprint of a %d-instruction program allocates %d bytes per call, want <= %d",
			len(out.Program.Body), perCall, 16<<10)
	}
}
