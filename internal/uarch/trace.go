package uarch

import "hef/internal/telemetry"

// Per-instruction lifecycle tracing. The recorder is opt-in: attach a
// telemetry.Tracer to a Sim with SetTracer and every dynamic instruction
// instance records three spans, timed in core cycles: a dispatch and a
// retire instant on the "pipeline" track, and an issue span on its port's
// track that runs until the result is available (with the cache level that
// serviced a memory operation). obs.ChromeTrace exports them as Chrome
// trace-event JSON loadable in Perfetto.

// SetTracer attaches (or, with nil, detaches) a lifecycle recorder. Spans
// accumulate across Run calls until it is replaced.
func (s *Sim) SetTracer(t *telemetry.Tracer) { s.trace = t }

// traceStage records the dispatch or retire instant of body instruction b.
// It and traceIssue stay out of line, so each record site in RunInto is one
// call behind its nil check.
//
//go:noinline
func (s *Sim) traceStage(stage string, cycle, iter int64, b int32, name string) {
	s.trace.Add(telemetry.Span{
		Name: stage + " " + name, Track: "pipeline", Start: cycle, Instant: true,
		Instr: true, Iter: iter, Body: b,
	})
}

// traceIssue records the issue of body instruction b on the port the last
// tryIssue claimed, lasting lat cycles.
//
//go:noinline
func (s *Sim) traceIssue(cycle, lat, iter int64, b int32, name string) {
	s.trace.Add(telemetry.Span{
		Name: name, Track: portTrack(s.lastPort), Start: cycle, Dur: lat,
		Instr: true, Iter: iter, Body: b, Level: s.lastLevel,
	})
}

// portTrack names the timeline row of issue port p.
func portTrack(p int8) string {
	if p < 0 {
		return "pipeline"
	}
	return "port " + string(rune('0'+p))
}
