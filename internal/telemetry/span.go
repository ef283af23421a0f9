package telemetry

import (
	"sync"
	"time"
)

// Span is one recorded interval or instant on a timeline. Two producers
// record spans, each in its own clock: the simulator records a dispatch,
// an issue and a retire per dynamic instruction in core cycles, and the
// sweep records its own run, one span per task and one per checkpoint
// flush in microseconds since the tracer's creation, so a trace carries no
// absolute timestamps. Spans are emit-time-only state: they feed the
// Chrome-trace export and the /status span count, never a checkpoint or a
// fingerprint.
type Span struct {
	// Name labels the span: an instruction mnemonic, "dispatch VPADDD",
	// "run silver/sf10", "flush".
	Name string
	// Track is the timeline row: "port 3" or "pipeline" for simulated
	// instructions, "sweep", "run" or "checkpoint" for the sweep.
	Track string
	// Start and Dur locate the span in its producer's clock.
	Start, Dur int64
	// Instant marks a point event (dispatch, retire) rather than an
	// interval.
	Instant bool
	// Instr marks a simulated instruction instance, identified by Iter
	// (loop iteration) and Body (index into the program body). Level is
	// the cache level that serviced a memory operation (1 L1 .. 4 memory,
	// as cache.Hierarchy.Access reports it), or 0.
	Instr bool
	Iter  int64
	Body  int32
	Level int8
}

// Tracer records spans, up to a cap of 2^20; beyond it new spans are
// dropped and Dropped counts them. All methods are safe on a nil *Tracer
// (no-ops), so instrumented code traces unconditionally. Safe for
// concurrent use.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped uint64
	epoch   time.Time
	maxLen  int
}

// maxSpans bounds a tracer's memory. It is sized for the simulator, which
// records three spans per instruction; a sweep records a handful per task.
const maxSpans = 1 << 20

// NewTracer starts a tracer; wall-clock offsets are measured from this
// call.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), maxLen: maxSpans}
}

// Begin opens a wall-clock span on the given track and returns the closure
// that ends it. On a nil tracer the closure is a no-op.
func (t *Tracer) Begin(track, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Record(track, name, start, time.Since(start)) }
}

// Record adds a completed wall-clock span, converted to microseconds since
// the tracer's creation (truncated).
func (t *Tracer) Record(track, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	off := max(start.Sub(t.epoch), 0)
	t.Add(Span{Name: name, Track: track, Start: off.Microseconds(), Dur: max(dur, 0).Microseconds()})
}

// Add records a span as given.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxLen {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len reports how many spans are recorded (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports how many spans the cap turned away (0 on nil).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
