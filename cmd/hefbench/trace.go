package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans live in memory until the run ends.
type span struct {
	ID, Parent int64 // Parent 0 marks a root
	// Lane is the sequential executor the span ran on: a goroutine-like
	// track on which spans nest and never overlap.
	Lane int64
	// Req groups the spans of one request: an operator search, a figure or
	// a job.
	Req         string
	Layer, Name string
	Start, End  time.Duration // offsets from the recorder's epoch
}

// recorder collects spans. A nil *recorder records nothing, so the
// untraced pass runs the same code at the cost of a nil check.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	lanes atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// scope is the position new spans attach to: the open span (id 0 at the
// top) on one lane.
type scope struct {
	r    *recorder
	id   int64
	lane int64
	req  string
}

// root returns a top-level scope on a fresh lane.
func (r *recorder) root(req string) scope {
	if r == nil {
		return scope{req: req}
	}
	return scope{r: r, lane: r.lanes.Add(1), req: req}
}

// forLane returns a scope whose spans are children of s but run on a fresh
// lane: work s handed to another goroutine.
func (s scope) forLane() scope {
	if s.r == nil {
		return s
	}
	s.lane = s.r.lanes.Add(1)
	return s
}

// withReq returns s relabelled to another request.
func (s scope) withReq(req string) scope {
	s.req = req
	return s
}

// span opens a child span of s on s's lane. end closes it.
func (s scope) span(layer, name string) (child scope, end func()) {
	if s.r == nil {
		return s, func() {}
	}
	id := s.r.ids.Add(1)
	start := time.Since(s.r.epoch)
	child = scope{r: s.r, id: id, lane: s.lane, req: s.req}
	return child, func() {
		sp := span{ID: id, Parent: s.id, Lane: s.lane, Req: s.req, Layer: layer, Name: name,
			Start: start, End: time.Since(s.r.epoch)}
		s.r.mu.Lock()
		s.r.spans = append(s.r.spans, sp)
		s.r.mu.Unlock()
	}
}

// snapshot returns the recorded spans sorted by start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// spanTime is the attribution of one span's interval. Self is the part no
// child span covers; Wait is the part covered only by children on other
// lanes (the span's lane was blocked on them). Self + Wait + the union of
// the same-lane children equals the span's duration, so on every lane the
// Self and Wait of its spans sum to the total of the lane's roots.
type spanTime struct {
	Self, Wait time.Duration
}

// attribute computes Self and Wait for every span, keyed by span ID.
func attribute(spans []span) map[int64]spanTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]spanTime, len(spans))
	for _, s := range spans {
		var all, same [][2]time.Duration
		for _, c := range children[s.ID] {
			iv := [2]time.Duration{max(c.Start, s.Start), min(c.End, s.End)}
			if iv[1] <= iv[0] {
				continue
			}
			all = append(all, iv)
			if c.Lane == s.Lane {
				same = append(same, iv)
			}
		}
		covered, sameCovered := unionLen(all), unionLen(same)
		out[s.ID] = spanTime{Self: s.End - s.Start - covered, Wait: covered - sameCovered}
	}
	return out
}

// unionLen is the total length of the union of the intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curStart, curEnd, open = iv[0], iv[1], true
		case iv[0] <= curEnd:
			curEnd = max(curEnd, iv[1])
		default:
			total += curEnd - curStart
			curStart, curEnd = iv[0], iv[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// layerTimes sums Self and Wait per layer.
func layerTimes(spans []span, at map[int64]spanTime) map[string]spanTime {
	out := map[string]spanTime{}
	for _, s := range spans {
		t := out[s.Layer]
		t.Self += at[s.ID].Self
		t.Wait += at[s.ID].Wait
		out[s.Layer] = t
	}
	return out
}

// laneRoots sums, per lane, the durations of the lane's roots: spans whose
// parent is absent or runs on another lane.
func laneRoots(spans []span) map[int64]time.Duration {
	lane := make(map[int64]int64, len(spans))
	for _, s := range spans {
		lane[s.ID] = s.Lane
	}
	out := map[int64]time.Duration{}
	for _, s := range spans {
		if pl, ok := lane[s.Parent]; !ok || pl != s.Lane {
			out[s.Lane] += s.End - s.Start
		}
	}
	return out
}

// identityError is the largest relative gap, over lanes, between the sum
// of the lane's span Self+Wait and the total of its roots. It is zero up to
// rounding when spans nest properly on each lane.
func identityError(spans []span, at map[int64]spanTime) float64 {
	sum := map[int64]time.Duration{}
	for _, s := range spans {
		sum[s.Lane] += at[s.ID].Self + at[s.ID].Wait
	}
	worst := 0.0
	for lane, roots := range laneRoots(spans) {
		if roots <= 0 {
			continue
		}
		gap := float64(sum[lane]-roots) / float64(roots)
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X" events,
// one tid per lane, ts in microseconds).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
