package sched

import (
	"sync"
	"testing"
	"time"
)

// A half-open breaker admits exactly one probe even when many goroutines
// race through Allow at the same instant. Run under -race this also proves
// the transition open → half-open → probing is free of data races.
func TestBreakerConcurrentHalfOpenAdmitsExactlyOne(t *testing.T) {
	b := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	t0 := time.Unix(0, 0)
	b.Failure("k", t0) // trips at threshold 1
	probeTime := t0.Add(2 * time.Second)

	const racers = 64
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if ok, _ := b.Allow("k", probeTime); ok {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open breaker admitted %d of %d concurrent probes, want exactly 1", admitted, racers)
	}
	// The losing racers must not have corrupted the probe slot: the probe's
	// verdict still drives the state machine.
	b.Success("k")
	if ok, _ := b.Allow("k", probeTime.Add(time.Millisecond)); !ok {
		t.Fatal("breaker did not close after the winning probe succeeded")
	}
}

// breakerStep is one event in a breaker rule scenario, at an offset from
// the scenario's start: an attempt asking to run (allow, with the verdict
// and Retry-After expected), a reported outcome, a neutral release of the
// probe slot, an OpenCount check, or a snapshot/restore into a fresh table.
type breakerStep struct {
	at   time.Duration
	op   string // "allow", "success", "failure", "release", "open", "reload"
	ok   bool   // allow: admitted
	wait time.Duration
	n    int // open: expected OpenCount
}

func TestBreakerRules(t *testing.T) {
	allow := func(at time.Duration, ok bool, wait time.Duration) breakerStep {
		return breakerStep{at: at, op: "allow", ok: ok, wait: wait}
	}
	ev := func(at time.Duration, op string) breakerStep { return breakerStep{at: at, op: op} }
	open := func(n int) breakerStep { return breakerStep{op: "open", n: n} }
	ms := time.Millisecond
	for _, tc := range []struct {
		name      string
		threshold int
		steps     []breakerStep
	}{
		{"failed probe reopens for a full cooldown", 1, []breakerStep{
			ev(0, "failure"), open(1), // trips at threshold 1
			allow(500*ms, false, 500*ms),
			allow(2000*ms, true, 0), open(0), // half-open: the probe
			allow(2000*ms, false, time.Second), // one probe at a time
			ev(2000*ms, "failure"), open(1),    // probe failed: open again
			allow(2500*ms, false, 500*ms),
			allow(3000*ms, true, 0), // a full cooldown from the probe's failure
			ev(3000*ms, "success"), open(0),
			allow(3000*ms, true, 0), allow(3000*ms, true, 0), // closed
		}},
		{"failure admitted before the trip does not extend the cooldown", 1, []breakerStep{
			allow(0, true, 0), allow(0, true, 0), // two attempts admitted while closed
			ev(0, "failure"),             // the first fails: open
			ev(800*ms, "failure"),        // the second fails while open, no probe out
			allow(900*ms, false, 100*ms), // cooldown still runs from the trip
			allow(1000*ms, true, 0),
		}},
		{"failures must be consecutive", 3, []breakerStep{
			ev(0, "failure"), ev(0, "failure"), ev(0, "success"),
			ev(0, "failure"), ev(0, "failure"), allow(0, true, 0),
			ev(0, "failure"), allow(0, false, time.Second),
		}},
		{"release frees the probe slot", 1, []breakerStep{
			ev(0, "failure"),
			allow(time.Second, true, 0), allow(time.Second, false, time.Second),
			ev(time.Second, "release"), open(1),
			allow(time.Second, true, 0),
		}},
		{"restore keeps the circuit but not the probe", 1, []breakerStep{
			ev(0, "failure"), ev(0, "reload"),
			allow(500*ms, false, 500*ms), // the cooldown's original anchor
			allow(time.Second, true, 0), ev(time.Second, "reload"),
			allow(time.Second, true, 0), // the lost probe's slot is free
			allow(time.Second, false, time.Second),
		}},
		{"zero threshold disables", 0, []breakerStep{
			ev(0, "failure"), ev(0, "failure"), allow(0, true, 0), open(0),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BreakerConfig{Threshold: tc.threshold, Cooldown: time.Second}
			b := NewBreakers(cfg)
			t0 := time.Unix(0, 0)
			for i, s := range tc.steps {
				now := t0.Add(s.at)
				switch s.op {
				case "allow":
					if ok, wait := b.Allow("k", now); ok != s.ok || wait != s.wait {
						t.Fatalf("step %d: Allow at %v = (%v, %v), want (%v, %v)", i, s.at, ok, wait, s.ok, s.wait)
					}
				case "success":
					b.Success("k")
				case "failure":
					b.Failure("k", now)
				case "release":
					b.Release("k")
				case "open":
					if n := b.OpenCount(); n != s.n {
						t.Fatalf("step %d: OpenCount = %d, want %d", i, n, s.n)
					}
				case "reload":
					fresh := NewBreakers(cfg)
					fresh.Restore(b.Snapshot())
					b = fresh
				}
			}
			// Other keys never share a circuit.
			if ok, _ := b.Allow("other", t0); !ok {
				t.Fatal("an untouched key was denied")
			}
		})
	}
}
