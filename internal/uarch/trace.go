package uarch

// Per-instruction lifecycle tracing. The recorder is opt-in: attach a
// TraceLog to a Sim with SetTraceLog and every dynamic instruction instance
// emits dispatch, issue, and retire events (with the issue port, the cycles
// until the result is available, and the cache level that serviced memory
// operations). The obs package exports a log as Chrome trace-event JSON
// loadable in Perfetto.

// TraceKind enumerates the lifecycle stages recorded per instruction.
type TraceKind uint8

const (
	// TraceDispatch is the cycle the instruction entered the ROB.
	TraceDispatch TraceKind = iota
	// TraceIssue is the cycle the instruction claimed an execution port;
	// its Dur runs to the cycle the result became available.
	TraceIssue
	// TraceRetire is the cycle the instruction left the ROB.
	TraceRetire
)

func (k TraceKind) String() string {
	switch k {
	case TraceDispatch:
		return "dispatch"
	case TraceIssue:
		return "issue"
	case TraceRetire:
		return "retire"
	}
	return "unknown"
}

// TraceEvent is one lifecycle event of one dynamic instruction instance.
type TraceEvent struct {
	Kind TraceKind
	// Cycle is when the event happened.
	Cycle int64
	// Dur is, on issue events, the cycles until the result is available
	// (instruction latency plus cache effects).
	Dur int64
	// Iter and Body identify the dynamic instance: loop iteration and index
	// into the program body.
	Iter int64
	Body int32
	// Name is the instruction mnemonic.
	Name string
	// Port is the issue port claimed (issue events), or -1.
	Port int8
	// Level is the cache level that serviced a memory operation
	// (1 L1 .. 4 memory, as reported by cache.Hierarchy.Access), or 0.
	Level int8
}

// traceLimit bounds the events a TraceLog keeps.
const traceLimit = 1 << 20

// TraceLog accumulates lifecycle events, up to 2^20 of them.
type TraceLog struct {
	Events []TraceEvent
	// Dropped counts events discarded after the limit was reached.
	Dropped uint64
}

func (t *TraceLog) add(ev TraceEvent) {
	if len(t.Events) >= traceLimit {
		t.Dropped++
		return
	}
	t.Events = append(t.Events, ev)
}

// SetTraceLog attaches (or, with nil, detaches) a lifecycle recorder. The
// log accumulates across Run calls until replaced.
func (s *Sim) SetTraceLog(t *TraceLog) { s.trace = t }
