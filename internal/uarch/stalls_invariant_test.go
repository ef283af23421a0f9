package uarch_test

// External-package tests: the stall-attribution invariant on real translated
// Murmur traces (the translator imports uarch, so these cannot live in
// package uarch).

import (
	"strings"
	"testing"

	"hef/internal/hashes"
	"hef/internal/isa"
	"hef/internal/telemetry"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// runMurmur translates the Murmur template at node and simulates it.
func runMurmur(t *testing.T, cpuName string, node translator.Node) *uarch.Result {
	t.Helper()
	cpu, err := isa.ByName(cpuName)
	if err != nil {
		t.Fatal(err)
	}
	out, err := translator.Translate(hashes.MurmurTemplate(), node, translator.Options{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	sim := uarch.NewSim(cpu)
	iters := int64(1<<13) / int64(out.ElemsPerIter)
	res, err := sim.Run(out.Program, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStallAttributionInvariant checks, for scalar, SIMD, and hybrid Murmur
// traces on both paper CPUs (6 workload × CPU combinations), that the
// top-down buckets exactly cover the cycle count, that per-port busy cycles
// never exceed the run length (utilization <= 1 per port, and hence total
// utilization <= port count), and that the occupancy histograms account for
// every cycle.
func TestStallAttributionInvariant(t *testing.T) {
	nodes := map[string]translator.Node{
		"scalar": {V: 0, S: 1, P: 1},
		"simd":   {V: 1, S: 0, P: 1},
		"hybrid": {V: 1, S: 1, P: 3},
	}
	for _, cpuName := range []string{"silver", "gold"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatal(err)
		}
		for label, node := range nodes {
			res := runMurmur(t, cpuName, node)
			name := cpuName + "/" + label

			if got := res.Stalls.Total(); got != res.Cycles {
				t.Errorf("%s: stall buckets sum to %d, want Cycles=%d (%+v)",
					name, got, res.Cycles, res.Stalls)
			}
			if len(res.PortBusy) != len(cpu.Ports) {
				t.Fatalf("%s: PortBusy has %d entries, want %d ports", name, len(res.PortBusy), len(cpu.Ports))
			}
			var totalUtil float64
			for i, busy := range res.PortBusy {
				if busy > res.Cycles {
					t.Errorf("%s: port %d busy %d cycles > total %d", name, i, busy, res.Cycles)
				}
				totalUtil += res.PortUtil(i)
			}
			if totalUtil > float64(len(cpu.Ports)) {
				t.Errorf("%s: total port utilization %.2f exceeds port count %d", name, totalUtil, len(cpu.Ports))
			}
			if got := res.ROBOcc.Total(); got != res.Cycles {
				t.Errorf("%s: ROB occupancy histogram covers %d cycles, want %d", name, got, res.Cycles)
			}
			if got := res.LoadQOcc.Total(); got != res.Cycles {
				t.Errorf("%s: load-queue occupancy histogram covers %d cycles, want %d", name, got, res.Cycles)
			}
			if res.Stalls.Retiring == 0 {
				t.Errorf("%s: no retiring cycles recorded over %d cycles", name, res.Cycles)
			}
		}
	}
}

// TestStallsAddAndScalePreserveInvariant checks the invariant survives the
// Add/Scale extrapolation pipeline the experiment drivers use.
func TestStallsAddAndScalePreserveInvariant(t *testing.T) {
	a := runMurmur(t, "silver", translator.Node{V: 1, S: 1, P: 3})
	b := runMurmur(t, "silver", translator.Node{V: 0, S: 1, P: 1})

	var sum uarch.Result
	sum.Add(a)
	sum.Add(b)
	if got := sum.Stalls.Total(); got != sum.Cycles {
		t.Errorf("after Add: stall buckets sum to %d, want %d", got, sum.Cycles)
	}

	a.Scale(1e9 / float64(a.Elems))
	if got := a.Stalls.Total(); got != a.Cycles {
		t.Errorf("after Scale: stall buckets sum to %d, want %d", got, a.Cycles)
	}
	for i, busy := range a.PortBusy {
		if busy > a.Cycles {
			t.Errorf("after Scale: port %d busy %d > cycles %d", i, busy, a.Cycles)
		}
	}
}

// TestTraceLogLifecycle checks the opt-in recorder captures a dispatch,
// issue, and retire span for every retired instruction, and nothing else.
func TestTraceLogLifecycle(t *testing.T) {
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	out, err := translator.Translate(hashes.MurmurTemplate(), translator.Node{V: 1, S: 1, P: 2}, translator.Options{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	sim := uarch.NewSim(cpu)
	tr := telemetry.NewTracer()
	sim.SetTracer(tr)
	res, err := sim.Run(out.Program, 4)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	counts := map[string]uint64{}
	for _, s := range spans {
		stage := "issue"
		if s.Instant {
			stage, _, _ = strings.Cut(s.Name, " ")
		}
		counts[stage]++
		if !s.Instr {
			t.Errorf("span %s is not marked as an instruction's", s.Name)
		}
		if !s.Instant && !strings.HasPrefix(s.Track, "port ") {
			t.Errorf("issue span for %s iter %d has no port (track %q)", s.Name, s.Iter, s.Track)
		}
	}
	for _, stage := range []string{"dispatch", "issue", "retire"} {
		if counts[stage] != res.Instructions {
			t.Errorf("%s spans = %d, want one per retired instruction (%d)", stage, counts[stage], res.Instructions)
		}
	}
	if n := uint64(len(spans)); n != 3*res.Instructions || tr.Dropped() != 0 {
		t.Errorf("%d spans (%d dropped), want three per retired instruction (%d) and none dropped", n, tr.Dropped(), res.Instructions)
	}

	// Detached: no further recording.
	sim.SetTracer(nil)
	n := tr.Len()
	if _, err := sim.Run(out.Program, 4); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Errorf("recorder captured %d spans after detach", tr.Len()-n)
	}
}
