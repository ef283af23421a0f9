package engine

import (
	"reflect"
	"testing"

	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// slowPathTemplates is every operator template the optimizer searches over —
// the four engine kernels plus the two hash kernels.
func slowPathTemplates() []struct {
	label string
	tmpl  *hid.Template
} {
	return []struct {
		label string
		tmpl  *hid.Template
	}{
		{"filter", FilterTemplate(2)},
		{"probe", ProbeTemplate(1 << 20)},
		{"agg", GroupAggTemplate(64 << 10)},
		{"bloom", BloomTemplate(1 << 18)},
		{"murmur", hashes.MurmurTemplate()},
		{"crc64", hashes.CRC64Template()},
	}
}

// TestSlowPathRunIntoZeroAllocs pins the slow path's allocation hygiene on
// production programs: after one warm-up run, RunInto on the translated
// hybrid form of every engine template must not allocate — on any machine
// model, with the steady-state machinery both off and on (the on case
// covers the replay recorder's arenas and the cache journal).
func TestSlowPathRunIntoZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("many warm-up simulations")
	}
	node := translator.Node{V: 1, S: 1, P: 2}
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		for _, tc := range slowPathTemplates() {
			out, err := translator.Translate(tc.tmpl, node,
				translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
			if err != nil {
				t.Fatalf("%s/%s: translate: %v", cpuName, tc.label, err)
			}
			for _, fast := range []bool{false, true} {
				sim := uarch.NewSim(cpu)
				sim.SetFastPath(fast)
				var res uarch.Result
				// Several warm-up runs: reused arenas (ring digests, replay
				// recordings, journal save-sets) grow to their high-water
				// mark over the first few runs because random-address
				// programs draw fresh lines each run.
				for i := 0; i < 12; i++ {
					if err := sim.RunInto(&res, out.Program, 512); err != nil {
						t.Fatalf("%s/%s fast=%v: warm-up: %v", cpuName, tc.label, fast, err)
					}
				}
				avg := testing.AllocsPerRun(5, func() {
					if err := sim.RunInto(&res, out.Program, 512); err != nil {
						t.Fatal(err)
					}
				})
				if avg > 0 {
					t.Errorf("%s/%s fast=%v: RunInto allocates %.1f objects per call after warm-up, want 0",
						cpuName, tc.label, fast, avg)
				}
			}
		}
	}
}

// TestSlowPathReplayDifferential is the production-program counterpart of
// the uarch package's replay tests: on every engine template × machine
// model, back-to-back runs with the steady-state machinery enabled must
// match the cycle-by-cycle walk bit for bit — including the cache
// hierarchy's access clock, which the second run inherits from the first.
// Period replay must also skip iterations somewhere among the six
// templates on every model, so the differential covers the skip and not
// just the detector.
func TestSlowPathReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("many slow-path simulations")
	}
	node := translator.Node{V: 1, S: 1, P: 2}
	const iters = 2048
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		var skipped int64
		for _, tc := range slowPathTemplates() {
			out, err := translator.Translate(tc.tmpl, node,
				translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
			if err != nil {
				t.Fatalf("%s/%s: translate: %v", cpuName, tc.label, err)
			}
			ss := uarch.NewSim(cpu)
			ss.SetFastPath(false)
			fs := uarch.NewSim(cpu)
			for run := 0; run < 2; run++ {
				slow, err := ss.Run(out.Program, iters)
				if err != nil {
					t.Fatalf("%s/%s run %d: slow: %v", cpuName, tc.label, run, err)
				}
				fast, err := fs.Run(out.Program, iters)
				if err != nil {
					t.Fatalf("%s/%s run %d: fast: %v", cpuName, tc.label, run, err)
				}
				if !reflect.DeepEqual(slow, fast) {
					t.Errorf("%s/%s run %d: diverged\nslow: %+v\nfast: %+v",
						cpuName, tc.label, run, slow, fast)
				}
				if ss.Hierarchy().AccessNo() != fs.Hierarchy().AccessNo() {
					t.Errorf("%s/%s run %d: hierarchy access clocks diverged: slow %d fast %d",
						cpuName, tc.label, run, ss.Hierarchy().AccessNo(), fs.Hierarchy().AccessNo())
				}
				fi, _ := fs.FastForwarded()
				t.Logf("%s/%s run %d: replay skipped %d of %d iterations", cpuName, tc.label, run, fi, iters)
				skipped += fi
			}
		}
		if skipped == 0 {
			t.Errorf("%s: replay skipped no iteration of any template", cpuName)
		}
	}
}

// TestReplayRearmsAfterDeviation pins the detector's recovery from a replay
// rollback. On silver and gold, crc64's scalar table lookups occasionally
// come back slower than the recorded period said, so replay deviates and
// falls back to the slow path. The detector must re-arm on a short period
// afterwards and keep skipping: a stale pre-replay snapshot must not pose
// as a period of hundreds of iterations and switch detection off, and
// frequent short replays must not exhaust the boundary budget.
func TestReplayRearmsAfterDeviation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-path simulations")
	}
	node := translator.Node{V: 1, S: 1, P: 2}
	const iters, minSkip = 2048, 900
	for _, cpuName := range []string{"silver", "gold"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatal(err)
		}
		out, err := translator.Translate(hashes.CRC64Template(), node,
			translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
		if err != nil {
			t.Fatal(err)
		}
		ss := uarch.NewSim(cpu)
		ss.SetFastPath(false)
		fs := uarch.NewSim(cpu)
		for run := 0; run < 2; run++ {
			slow, err := ss.Run(out.Program, iters)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := fs.Run(out.Program, iters)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slow, fast) {
				t.Errorf("%s run %d: fast path diverged from the slow path", cpuName, run)
			}
			// The warm run is the one an evaluation measures; the cold
			// first run also deviates on compulsory table misses.
			if fi, _ := fs.FastForwarded(); run == 1 && fi < minSkip {
				t.Errorf("%s/crc64 %v run %d: replay skipped %d of %d iterations, want at least %d",
					cpuName, node, run, fi, iters, minSkip)
			}
		}
	}
}
