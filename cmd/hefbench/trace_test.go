package main

import (
	"sync"
	"testing"
	"time"
)

// ms builds a synthetic span with times in milliseconds.
func ms(id, parent, lane int64, layer string, start, end int) span {
	return span{ID: id, Parent: parent, Lane: lane, Layer: layer, Name: layer,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

// coveredByChildren is the brute-force reference for the union of a span's
// children: the milliseconds of the span that some child overlaps.
func coveredByChildren(spans []span, s span) time.Duration {
	var n time.Duration
	for t := s.Start; t < s.End; t += time.Millisecond {
		for _, c := range spans {
			if c.Parent == s.ID && c.Start <= t && t < c.End {
				n += time.Millisecond
				break
			}
		}
	}
	return n
}

func TestSelfTimeNestedAndParallel(t *testing.T) {
	spans := []span{
		// Lane 1: a round with two nested searches, the second of which
		// hands evaluations to lanes 2 and 3 that overlap each other.
		ms(1, 0, 1, "bench", 0, 200),
		ms(2, 1, 1, "core", 10, 60),
		ms(3, 2, 1, "translator", 15, 25),
		ms(4, 1, 1, "hef", 70, 190),
		ms(5, 4, 1, "hef", 70, 75), // an evaluation on the search's own lane
		ms(6, 4, 2, "uarch", 80, 150),
		ms(7, 4, 3, "uarch", 120, 180),
		ms(8, 7, 3, "memo", 125, 135),
		// Lane 4: a root with no children.
		ms(9, 0, 4, "experiments", 5, 50),
	}
	at := attribute(spans)
	for _, s := range spans {
		if got, want := at[s.ID].Self, s.End-s.Start-coveredByChildren(spans, s); got != want {
			t.Errorf("span %d: self %v, want duration minus the union of its children %v", s.ID, got, want)
		}
	}
	// The search waits on lanes 2 and 3 for [80,180) minus nothing its own
	// lane covers there.
	if got, want := at[4].Wait, 100*time.Millisecond; got != want {
		t.Errorf("search wait %v, want %v", got, want)
	}

	sum := map[int64]time.Duration{}
	for _, s := range spans {
		sum[s.Lane] += at[s.ID].Self + at[s.ID].Wait
	}
	roots := laneRoots(spans)
	want := map[int64]time.Duration{1: 200 * time.Millisecond, 2: 70 * time.Millisecond, 3: 60 * time.Millisecond, 4: 45 * time.Millisecond}
	for lane, w := range want {
		if roots[lane] != w {
			t.Errorf("lane %d: roots total %v, want %v", lane, roots[lane], w)
		}
		if sum[lane] != w {
			t.Errorf("lane %d: self+wait sum %v, want the roots total %v", lane, sum[lane], w)
		}
	}
	if e := identityError(spans, at); e != 0 {
		t.Errorf("identity error %g, want 0", e)
	}

	lt := layerTimes(spans, at)
	if got, want := lt["uarch"].Self, 120*time.Millisecond; got != want {
		t.Errorf("uarch self %v, want %v", got, want)
	}
}

func TestRecorderConcurrentLanes(t *testing.T) {
	rec := newRecorder()
	sc, end := rec.root("req").span("hef", "search")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := sc.forLane()
			for i := 0; i < 50; i++ {
				ev, endEv := lane.span("hef", "Evaluate")
				_, endT := ev.span("translator", "Translate")
				endT()
				endEv()
			}
		}()
	}
	wg.Wait()
	end()
	spans := rec.snapshot()
	if len(spans) != 1+4*50*2 {
		t.Fatalf("%d spans, want %d", len(spans), 1+4*50*2)
	}
	if e := identityError(spans, attribute(spans)); e > 1e-9 {
		t.Errorf("identity error %g, want 0", e)
	}
	var nilRec *recorder
	if _, end := nilRec.root("x").span("core", "noop"); end == nil {
		t.Fatal("nil recorder returned a nil end func")
	}
}
