package engine

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

var updateRunInto = flag.Bool("update", false, "rewrite testdata/runinto.golden from the current simulator")

// runIntoElems is the element count each golden run simulates: enough
// iterations for period replay to engage on the streaming operators, few
// enough to keep the whole matrix to a few seconds.
const runIntoElems = 2048

// resultDigest hashes every field of two back-to-back Results (a cold and
// a warm run on one simulator) — cycles, counters, stall buckets, port busy
// counts and occupancy histograms alike.
func resultDigest(runs [2]uarch.Result) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunIntoResultGolden pins the bytes of every uarch.Result field for
// hefopt's six operators at the scalar, small-hybrid and wide-hybrid nodes
// on all four machine models, with the steady-state fast path off and on,
// plus a silver run under latency/occupancy jitter and port faults. Other
// goldens pin only seconds or cycles; this one also pins what the per-cycle
// accounting writes (stall buckets, port busy counts, occupancy
// histograms). Run with -update to rewrite the golden after an intended
// model change.
func TestRunIntoResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("many slow-path simulations")
	}
	ops := []struct {
		label string
		tmpl  *hid.Template
	}{
		{"murmur", hashes.MurmurTemplate()},
		{"crc64", hashes.CRC64Template()},
		{"probe", ProbeTemplate(32 << 20)},
		{"filter", FilterTemplate(2)},
		{"agg", GroupAggTemplate(64 << 10)},
		{"bloom", BloomTemplate(1 << 20)},
	}
	nodes := []translator.Node{{V: 0, S: 1, P: 1}, {V: 1, S: 1, P: 2}, {V: 2, S: 2, P: 6}}
	jitter := &uarch.Perturb{Seed: 11, LatJitter: 0.1, OccJitter: 0.1, PortFaultRate: 0.02}

	var b bytes.Buffer
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, node := range nodes {
				out, err := translator.Translate(op.tmpl, node,
					translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
				if err != nil {
					t.Fatalf("%s/%s %v: translate: %v", cpuName, op.label, node, err)
				}
				iters := max(int64(runIntoElems/out.ElemsPerIter), 1)
				run := func(fast bool, p *uarch.Perturb) [2]uarch.Result {
					t.Helper()
					sim := uarch.NewSim(cpu)
					sim.SetFastPath(fast)
					sim.SetPerturb(p)
					var runs [2]uarch.Result
					for i := range runs {
						if err := sim.RunInto(&runs[i], out.Program, iters); err != nil {
							t.Fatalf("%s/%s %v fast=%v: %v", cpuName, op.label, node, fast, err)
						}
					}
					return runs
				}
				slow, fast := run(false, nil), run(true, nil)
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("%s/%s %v: fast path diverged from the slow path", cpuName, op.label, node)
				}
				fmt.Fprintf(&b, "%s %s %v slow %s\n", cpuName, op.label, node, resultDigest(slow))
				fmt.Fprintf(&b, "%s %s %v fast %s\n", cpuName, op.label, node, resultDigest(fast))
				if cpuName == "silver" {
					fmt.Fprintf(&b, "%s %s %v jitter %s\n", cpuName, op.label, node, resultDigest(run(true, jitter)))
				}
			}
		}
	}

	path := filepath.Join("testdata", "runinto.golden")
	if *updateRunInto {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}
