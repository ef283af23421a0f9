package obs

import (
	"encoding/json"
	"sort"

	"hef/internal/cache"
	"hef/internal/uarch"
)

// Chrome trace-event export: the simulator's per-instruction lifecycle log
// rendered as the JSON object format Perfetto and chrome://tracing load.
// Each traced run becomes one process; each issue port becomes a thread, so
// the port-level schedule reads directly off the timeline. Timestamps are
// core cycles (the viewer displays them as microseconds).

// TraceSection is one traced run: a name (shown as the process name) and
// the events its simulator recorded.
type TraceSection struct {
	Name   string
	Events []uarch.TraceEvent
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
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders one or more traced runs as Chrome trace-event JSON.
// Execution (issue → complete) becomes duration events on per-port tracks;
// dispatch and retire become instant events on a pipeline track. Events are
// sorted by timestamp, so ts is monotonically non-decreasing over the
// document.
func ChromeTrace(sections []TraceSection) ([]byte, error) {
	evs, err := chromeEvents(sections)
	if err != nil {
		return nil, err
	}
	return marshalChrome(evs)
}

// chromeEvents converts the traced runs to sorted trace events; extending
// exporters (ChromeTraceWith) append their own before marshalling.
func chromeEvents(sections []TraceSection) ([]chromeEvent, error) {
	var evs []chromeEvent
	for pid, sec := range sections {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: "meta",
			Args: map[string]any{"name": sec.Name},
		})
		for _, ev := range sec.Events {
			switch ev.Kind {
			case uarch.TraceIssue:
				args := map[string]any{"iter": ev.Iter, "body": ev.Body}
				if lvl := cache.LevelName(int(ev.Level)); lvl != "" {
					args["cache_level"] = lvl
				}
				evs = append(evs, chromeEvent{
					Name: ev.Name, Ph: "X", Ts: ev.Cycle, Dur: ev.Dur,
					Pid: pid, Tid: portTrack(ev.Port), Args: args,
				})
			case uarch.TraceDispatch, uarch.TraceRetire:
				evs = append(evs, chromeEvent{
					Name: ev.Kind.String() + " " + ev.Name, Ph: "i", Ts: ev.Cycle,
					Pid: pid, Tid: "pipeline", S: "t",
					Args: map[string]any{"iter": ev.Iter, "body": ev.Body},
				})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	return evs, nil
}

func marshalChrome(evs []chromeEvent) ([]byte, error) {
	return json.Marshal(chromeDoc{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

func portTrack(p int8) string {
	if p < 0 {
		return "pipeline"
	}
	return "port " + string(rune('0'+p))
}
