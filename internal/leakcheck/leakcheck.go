// Package leakcheck asserts that a test leaves no goroutines behind. It
// snapshots the live goroutines at Check time and, at test cleanup, diffs
// against the snapshot with a settling retry — a just-cancelled worker gets
// a moment to unwind before it counts as leaked.
//
// The daemon's robustness claims are partly "no unbounded goroutines":
// shed submissions, drained servers, and closed managers must all return
// the scheduler to its starting population. This package turns that claim
// into a test assertion.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB Check needs, kept narrow so the package
// has no import cycle with test helpers.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// settle is how long cleanup waits for post-test goroutines to unwind
// before declaring them leaked.
const settle = 5 * time.Second

// Check snapshots the current goroutines and registers a cleanup that
// fails the test if goroutines created after the snapshot are still
// running when the test ends. Call it first in the test body.
func Check(t TB) {
	t.Helper()
	before := ids()
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range stacks() {
				if !before[id] && !boring(stack) {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// ids returns the set of live goroutine IDs.
func ids() map[string]bool {
	set := map[string]bool{}
	for id := range stacks() {
		set[id] = true
	}
	return set
}

// stacks returns every live goroutine's full stack, keyed by goroutine ID.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, ok := strings.Cut(g, "\n")
		if !ok {
			continue
		}
		// Header shape: "goroutine 123 [running]:".
		fields := strings.Fields(header)
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		out[fields[1]] = g
	}
	return out
}

// boring reports whether a stack belongs to the runtime or test machinery
// rather than code under test: those goroutines exist independently of the
// test and churn freely.
func boring(stack string) bool {
	for _, marker := range []string{
		"runtime.Stack(",                         // this snapshot itself
		"testing.tRunner(",                       // sibling tests
		"testing.(*T).Run(",                      // test spawning
		"testing.runTests(",                      // the test main
		"testing.(*M).",                          // test main machinery
		"os/signal.signal_recv(",                 // signal delivery
		"os/signal.loop(",                        // signal delivery
		"runtime.ensureSigM(",                    // signal delivery setup
		"created by runtime.gc",                  // collector helpers
		"runtime.bgsweep(",                       // collector helpers
		"runtime.bgscavenge(",                    // collector helpers
		"runtime.forcegchelper(",                 // collector helpers
		"runtime.ReadTrace(",                     // execution tracer
		"runtime/pprof.",                         // profiler
		"net/http.(*connReader).backgroundRead(", // idle keep-alive read, dies with the conn
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}

// String renders the current goroutine population for debugging helpers.
func String() string {
	all := stacks()
	return fmt.Sprintf("%d goroutines", len(all))
}
