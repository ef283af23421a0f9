package obs

import (
	"encoding/json"
	"sort"

	"hef/internal/cache"
	"hef/internal/telemetry"
)

// Chrome trace-event export: recorded spans rendered as the JSON object
// format Perfetto and chrome://tracing load. Each section becomes one
// process and each span track a thread, so a simulator section's port-level
// schedule reads directly off the timeline. Simulator spans are timed in
// core cycles and sweep-lifecycle spans in microseconds; the viewer shows
// both as microseconds, each section on its own clock.

// TraceSection is one named run of spans: a traced simulation, or the
// sweep lifecycle. The name is shown as the process name.
type TraceSection struct {
	Name  string
	Spans []telemetry.Span
}

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON object format.
type chromeDoc struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders sections as Chrome trace-event JSON. Intervals become
// duration events and instants thread-scoped instant events; a simulated
// instruction's span carries its iteration, body index and serving cache
// level as args. Events are sorted by timestamp, so ts is monotonically
// non-decreasing over the document.
func ChromeTrace(sections []TraceSection) ([]byte, error) {
	var evs []chromeEvent
	for pid, sec := range sections {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: "meta",
			Args: map[string]any{"name": sec.Name},
		})
		for _, s := range sec.Spans {
			ev := chromeEvent{Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.Dur, Pid: pid, Tid: s.Track}
			if s.Instant {
				ev.Ph, ev.S = "i", "t"
			}
			if s.Instr {
				ev.Args = map[string]any{"iter": s.Iter, "body": s.Body}
				if lvl := cache.LevelName(int(s.Level)); lvl != "" {
					ev.Args["cache_level"] = lvl
				}
			}
			evs = append(evs, ev)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return json.Marshal(chromeDoc{Events: evs, DisplayTimeUnit: "ns"})
}
