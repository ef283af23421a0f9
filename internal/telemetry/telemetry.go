// Package telemetry is the live-observability substrate of the
// reproduction: a dependency-free metrics registry (atomic counters,
// gauges, and bounded histograms), Prometheus text exposition with
// health/readiness/status HTTP endpoints, periodic structured heartbeat
// lines, and the one span type and recorder that trace both the sweep
// lifecycle and the simulator's per-instruction schedule. The long-running
// tools (hefopt, hefsens, ssbbench — and eventually the hefd daemon) mount
// it behind -metrics-addr and -heartbeat so a multi-hour sweep is
// observable while it runs, not only through the obs.RunReport it emits at
// the end.
//
// Determinism contract (see DESIGN.md §10): telemetry is emit-time-only
// state. Metric values and spans never enter checkpoints, fingerprints, or
// any checkpointed report — the byte-determinism guarantees of the sweep
// layer (reports identical across worker counts, resume identical to an
// uninterrupted run) hold with telemetry on or off. The only output that
// may carry telemetry is the final emitted report's optional "telemetry"
// block and the live endpoints themselves.
//
// Overhead contract: every instrument is nil-safe — a nil *Counter,
// *Gauge, *Histogram, or *Tracer no-ops — so instrumented code paths pay a
// single predictable branch when telemetry is disabled. The telemetry
// overhead benchmark (make bench-json → BENCH_3.json) tracks the
// instrumented-but-disabled cost of the full offline optimization phase.
package telemetry
