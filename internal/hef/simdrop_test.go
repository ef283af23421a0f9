package hef

import (
	"testing"

	"hef/internal/hashes"
	"hef/internal/isa"
	"hef/internal/uarch"
)

// TestPanickedSimulatorIsDropped: a simulator whose measurement panicked
// does not go back on the evaluator's stack, and the next Run measures on a
// new one exactly as a fresh evaluator does.
func TestPanickedSimulatorIsDropped(t *testing.T) {
	cpu := isa.XeonSilver4110()
	tmpl := hashes.MurmurTemplate()
	node := Node{V: 1, S: 1, P: 1}
	want, err := NewSimEvaluator(cpu, tmpl, 0, 1<<10).Evaluate(node)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewSimEvaluator(cpu, tmpl, 0, 1<<10)
	broken := &uarch.Sim{} // no hierarchy: the first measurement panics
	ev.sims.Push(broken)
	if _, err := safeEvaluate(ev, node); err == nil {
		t.Fatal("evaluating on a broken simulator did not panic")
	}
	if sim := ev.sims.Pop(); sim != nil {
		t.Fatal("the simulator whose measurement panicked went back on the stack")
	}
	got, err := ev.Evaluate(node)
	if err != nil || got != want {
		t.Fatalf("after the panic: %v (err %v), want %v", got, err, want)
	}
	if sim := ev.sims.Pop(); sim == nil || sim == broken {
		t.Fatal("the evaluator kept no new simulator after measuring")
	}
}

// TestForksShareSimulators: a fork measures on the simulators its parent
// has finished with instead of building its own.
func TestForksShareSimulators(t *testing.T) {
	cpu := isa.XeonSilver4110()
	ev := NewSimEvaluator(cpu, hashes.MurmurTemplate(), 0, 1<<10)
	if _, err := ev.Evaluate(Node{V: 1, S: 1, P: 1}); err != nil {
		t.Fatal(err)
	}
	sim := ev.sims.Pop()
	ev.sims.Push(sim)
	fork := ev.Fork().(*SimEvaluator)
	if _, err := fork.Evaluate(Node{V: 0, S: 2, P: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ev.sims.Pop(); got != sim || ev.sims.Pop() != nil {
		t.Fatal("the fork did not measure on its parent's simulator")
	}
}
