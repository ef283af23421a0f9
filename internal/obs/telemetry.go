package obs

import (
	"sort"

	"hef/internal/telemetry"
)

// TelemetryStats is the report form of the live-telemetry registry: a final
// snapshot of every series plus span bookkeeping. Like MemoStats.Store it
// attaches at emit time only — a run without -metrics-addr/-heartbeat
// carries no telemetry block, and checkpoints never do, so default runs
// stay byte-identical whatever the telemetry flags of a previous attempt.
type TelemetryStats struct {
	// Series maps every registered series name to its final value
	// (histograms appear as NAME_count/NAME_sum).
	Series map[string]float64 `json:"series"`
	// Spans counts recorded lifecycle spans; SpanTracks lists the tracks
	// they landed on, sorted.
	Spans      int      `json:"spans,omitempty"`
	SpanTracks []string `json:"span_tracks,omitempty"`
	// UptimeSeconds is the process wall time at emit.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// TelemetryFromRegistry snapshots reg (and tracer, which may be nil) for a
// report. Returns nil on a nil registry so disabled telemetry omits the
// block entirely.
func TelemetryFromRegistry(reg *telemetry.Registry, tracer *telemetry.Tracer, uptimeSeconds float64) *TelemetryStats {
	if reg == nil {
		return nil
	}
	ts := &TelemetryStats{Series: reg.Values(), UptimeSeconds: uptimeSeconds}
	if tracer != nil {
		spans := tracer.Spans()
		ts.Spans = len(spans)
		tracks := map[string]bool{}
		for _, s := range spans {
			tracks[s.Track] = true
		}
		for tr := range tracks {
			ts.SpanTracks = append(ts.SpanTracks, tr)
		}
		sort.Strings(ts.SpanTracks)
	}
	return ts
}
