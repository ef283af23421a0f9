// Package mount wires the telemetry substrate into a running tool in one
// call: it builds the registry and span tracer, registers the polled series
// that bridge the hot packages (memo, uarch, store) into the registry,
// installs the process-wide instrument set for the HEF search, starts the
// /metrics server and the heartbeat, and tears everything down in order on
// Close.
//
// The package exists so the three command-line tools stay thin: each parses
// -metrics-addr/-heartbeat, calls Start, and threads the returned session's
// sweep instruments into its RunSweep config. A nil *Session (telemetry
// disabled) is fully usable — every method no-ops — so the tools carry no
// enabled/disabled branches.
package mount

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"hef/internal/hef"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/store"
	"hef/internal/telemetry"
	"hef/internal/uarch"
)

// Options parameterises Start.
type Options struct {
	// Tool names the process in /status, heartbeats, and log lines.
	Tool string
	// MetricsAddr is the -metrics-addr flag: a host:port to serve /metrics,
	// /healthz, /readyz, and /status on ("" disables the server).
	MetricsAddr string
	// Heartbeat is the -heartbeat flag: the interval between structured
	// progress lines on stderr (0 disables).
	Heartbeat time.Duration
	// LogW receives the "serving on ADDR" line and the heartbeats (default
	// os.Stderr). Telemetry never writes to stdout: report bytes must be
	// identical with telemetry on or off.
	LogW io.Writer
	// Trace keeps the session live even with no server and no heartbeat, so
	// lifecycle spans are recorded for a WriteTrace export (-trace-out).
	Trace bool
	// Embedded builds the /metrics, /healthz, /readyz, and /status endpoints
	// without binding a listener: a daemon (cmd/hefd) mounts Session.Handler
	// on its own hardened HTTP server and still drives readiness through
	// SetReady/SetDraining. Mutually exclusive with MetricsAddr. An embedded
	// session records no spans: a daemon exports no trace, so a
	// process-lifetime span buffer would only fill.
	Embedded bool
}

// Session is a mounted telemetry stack. The zero of the type is never used;
// a disabled stack is a nil *Session, on which every method no-ops.
type Session struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	srv    *telemetry.Server
	hb     *telemetry.Heartbeat
	start  time.Time
	logW   io.Writer
}

// Start mounts telemetry per opts. With neither a metrics address nor a
// heartbeat interval it returns (nil, nil): disabled. On success the
// process-wide search instrument set is installed, so every search started
// afterwards reports into the session's registry.
func Start(opts Options) (*Session, error) {
	if opts.MetricsAddr == "" && opts.Heartbeat <= 0 && !opts.Trace && !opts.Embedded {
		return nil, nil
	}
	if opts.LogW == nil {
		opts.LogW = os.Stderr
	}
	s := &Session{
		reg:   telemetry.NewRegistry(),
		start: time.Now(),
		logW:  opts.LogW,
	}
	if !opts.Embedded {
		s.tracer = telemetry.NewTracer()
	}

	// The hot packages (memo, uarch) stay free of metric instruments; their
	// package-level totals are bridged in as polled series, computed only
	// when something scrapes.
	s.reg.GaugeFunc(telemetry.MetricMemoHits, "measurement memo hits across all caches", func() float64 {
		h, _ := memo.Totals()
		return float64(h)
	})
	s.reg.GaugeFunc(telemetry.MetricMemoMisses, "measurement memo misses across all caches", func() float64 {
		_, m := memo.Totals()
		return float64(m)
	})
	s.reg.GaugeFunc(telemetry.MetricMemoHitRate, "memo hits / (hits + misses)", func() float64 {
		h, m := memo.Totals()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	s.reg.GaugeFunc(telemetry.MetricSimInstr, "instructions retired by the simulator", func() float64 {
		return float64(uarch.Totals().Instructions)
	})
	s.reg.GaugeFunc(telemetry.MetricSimFastCycles, "cycles fast-forwarded by steady-state detection", func() float64 {
		return float64(uarch.Totals().FastCycles)
	})
	s.reg.GaugeFunc(telemetry.MetricSimSlowCycles, "cycles stepped one at a time", func() float64 {
		return float64(uarch.Totals().SlowCycles)
	})
	s.reg.GaugeFunc(telemetry.MetricSimRuns, "completed simulator runs", func() float64 {
		return float64(uarch.Totals().Runs)
	})
	s.reg.GaugeFunc(telemetry.MetricSimMinstrRate, "simulated instruction throughput since start, Minstr/s", func() float64 {
		if up := time.Since(s.start).Seconds(); up > 0 {
			return float64(uarch.Totals().Instructions) / up / 1e6
		}
		return 0
	})
	s.reg.GaugeFunc(telemetry.MetricSimIdleSkipped, "slow-path cycles jumped by the event-driven idle skip", func() float64 {
		return float64(uarch.Totals().IdleSkipped)
	})
	s.reg.GaugeFunc(telemetry.MetricSimSkelHits, "schedule-skeleton binds served by the simulator's bound skeleton", func() float64 {
		return float64(uarch.Totals().SkeletonHits)
	})
	s.reg.GaugeFunc(telemetry.MetricSimSkelMisses, "schedule-skeleton builds", func() float64 {
		return float64(uarch.Totals().SkeletonMisses)
	})
	s.reg.GaugeFunc(telemetry.MetricSimReplayPeriods, "loop periods fast-forwarded by response-verified replay", func() float64 {
		return float64(uarch.Totals().ReplayPeriods)
	})
	s.reg.GaugeFunc(telemetry.MetricUptime, "process uptime in seconds", func() float64 {
		return time.Since(s.start).Seconds()
	})

	hef.SetMetrics(telemetry.NewSearchMetrics(s.reg))

	if opts.Embedded {
		s.srv = telemetry.NewServer(opts.Tool, s.reg, s.tracer)
	} else if opts.MetricsAddr != "" {
		srv, err := telemetry.Serve(opts.MetricsAddr, opts.Tool, s.reg, s.tracer)
		if err != nil {
			hef.SetMetrics(nil)
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		s.srv = srv
		// The smoke tests parse this line to find an ephemeral (:0) port.
		fmt.Fprintf(opts.LogW, "%s: telemetry serving on %s\n", opts.Tool, srv.Addr())
	}
	s.hb = telemetry.StartHeartbeat(telemetry.HeartbeatConfig{
		Tool: opts.Tool, Interval: opts.Heartbeat, Registry: s.reg, Out: opts.LogW,
	})
	return s, nil
}

// Registry exposes the session's registry (nil when disabled).
func (s *Session) Registry() *telemetry.Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// SweepMetrics builds the sweep instrument set on the session's registry
// and span tracer (nil when disabled); pass it to SweepConfig.Metrics.
func (s *Session) SweepMetrics() *telemetry.SweepMetrics {
	if s == nil {
		return nil
	}
	return telemetry.NewSweepMetrics(s.reg, s.tracer)
}

// Handler returns the telemetry endpoint mux of an Embedded session for the
// daemon to mount on its own server (nil when disabled or not embedded).
func (s *Session) Handler() http.Handler {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Handler()
}

// SetReady flips /healthz and /readyz from starting to ready — call once
// flags are validated and the run is underway.
func (s *Session) SetReady() {
	if s == nil {
		return
	}
	s.srv.SetReady()
}

// SetDraining flips health to draining (503) while /metrics keeps serving.
// Hook it to the run context: context.AfterFunc(ctx, tel.SetDraining).
func (s *Session) SetDraining() {
	if s == nil {
		return
	}
	s.srv.SetDraining()
}

// ObserveStore bridges a durable memo store's counters into the registry as
// polled series. MemoStore.Stats is mutex-guarded, so polling mid-run from
// the scrape path is safe.
func (s *Session) ObserveStore(st *store.MemoStore) {
	if s == nil || st == nil {
		return
	}
	s.reg.GaugeFunc(telemetry.MetricStoreLoaded, "memo records restored from disk at open", func() float64 {
		return float64(st.Stats().Loaded)
	})
	s.reg.GaugeFunc(telemetry.MetricStorePersist, "memo records appended by this process", func() float64 {
		return float64(st.Stats().Persisted)
	})
	s.reg.GaugeFunc(telemetry.MetricStoreQuar, "memo store corruption events quarantined at open", func() float64 {
		return float64(st.Stats().Quarantined)
	})
	s.reg.GaugeFunc(telemetry.MetricStoreDegraded, "1 when memo persistence has failed and entries stay in memory", func() float64 {
		if st.Stats().Degraded != "" {
			return 1
		}
		return 0
	})
}

// AttachReport adds the emit-time telemetry block to a report about to be
// serialised. Reports headed for checkpoints must not pass through here —
// the block is emit-time-only state.
func (s *Session) AttachReport(rep *obs.RunReport) {
	if s == nil || rep == nil {
		return
	}
	rep.Telemetry = obs.TelemetryFromRegistry(s.reg, s.tracer, time.Since(s.start).Seconds())
}

// WriteTrace renders the recorded lifecycle spans as Chrome trace-event
// JSON at path — call it once the sweep has completed. The spans form one
// "sweep lifecycle" section; with none recorded the document is empty.
// No-op on a nil session or an empty path.
func (s *Session) WriteTrace(path string) error {
	if s == nil || path == "" {
		return nil
	}
	var sections []obs.TraceSection
	if spans := s.tracer.Spans(); len(spans) > 0 {
		sections = []obs.TraceSection{{Name: "sweep lifecycle", Spans: spans}}
	}
	data, err := obs.ChromeTrace(sections)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Close stops the heartbeat (emitting its final line), shuts the server
// down, and uninstalls the process-wide search instrument set.
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.hb.Stop()
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			fmt.Fprintf(s.logW, "telemetry: server close: %v\n", err)
		}
	}
	hef.SetMetrics(nil)
}
