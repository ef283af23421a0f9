package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// HeartbeatConfig parameterises StartHeartbeat.
type HeartbeatConfig struct {
	// Tool names the emitting driver.
	Tool string
	// Interval is the emission period; it must be positive.
	Interval time.Duration
	// Registry supplies the series the heartbeat summarises.
	Registry *Registry
	// Out receives the structured lines (default os.Stderr). Heartbeats go
	// to stderr, never stdout: the report/figure output must stay
	// byte-identical with telemetry on or off.
	Out io.Writer
}

// Heartbeat emits one structured log/slog line per interval summarising
// the run: completed/total tasks, an ETA extrapolated from the completion
// rate, the memo hit rate, worker-pool states, and the simulator's
// windowed Minstr/s. Stop emits a final line flagged final=true.
type Heartbeat struct {
	cfg    HeartbeatConfig
	log    *slog.Logger
	stop   chan struct{}
	wg     sync.WaitGroup
	start  time.Time
	mu     sync.Mutex
	last   map[string]float64
	lastAt time.Time
}

// StartHeartbeat launches the heartbeat loop. A non-positive interval or
// nil registry returns nil (and a nil *Heartbeat's Stop no-ops), so
// disabled heartbeats cost nothing.
func StartHeartbeat(cfg HeartbeatConfig) *Heartbeat {
	if cfg.Interval <= 0 || cfg.Registry == nil {
		return nil
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	h := &Heartbeat{
		cfg:   cfg,
		log:   slog.New(slog.NewTextHandler(cfg.Out, nil)),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	h.last = cfg.Registry.Values()
	h.lastAt = h.start
	h.wg.Add(1)
	go h.loop()
	return h
}

func (h *Heartbeat) loop() {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.emit(false)
		}
	}
}

// Stop ends the loop and emits the final line.
func (h *Heartbeat) Stop() {
	if h == nil {
		return
	}
	close(h.stop)
	h.wg.Wait()
	h.emit(true)
}

// emit renders one heartbeat line from the registry's current values.
func (h *Heartbeat) emit(final bool) {
	now := time.Now()
	vals := h.cfg.Registry.Values()

	h.mu.Lock()
	prev, prevAt := h.last, h.lastAt
	h.last, h.lastAt = vals, now
	h.mu.Unlock()

	elapsed := now.Sub(h.start)
	done := vals[MetricSweepDone]
	total := vals[MetricSweepTasks]
	attrs := []any{
		slog.String("tool", h.cfg.Tool),
		slog.Duration("elapsed", elapsed.Round(time.Second)),
		slog.Int("done", int(done)),
		slog.Int("total", int(total)),
	}
	if done > 0 && total > done {
		eta := time.Duration(float64(elapsed) / done * (total - done))
		attrs = append(attrs, slog.Duration("eta", eta.Round(time.Second)))
	}
	if hits, misses := vals[MetricMemoHits], vals[MetricMemoMisses]; hits+misses > 0 {
		attrs = append(attrs, slog.String("memo_hit_rate", fmt.Sprintf("%.2f", hits/(hits+misses))))
	}
	// Windowed simulator throughput: instructions retired since the last
	// beat over the wall time between beats.
	if dt := now.Sub(prevAt).Seconds(); dt > 0 {
		if di := vals[MetricSimInstr] - prev[MetricSimInstr]; di > 0 {
			attrs = append(attrs, slog.String("minstr_per_sec", fmt.Sprintf("%.1f", di/dt/1e6)))
		}
	}
	if f := vals[MetricFrontierSize]; f > 0 {
		attrs = append(attrs, slog.Int("frontier", int(f)))
	}
	if final {
		attrs = append(attrs, slog.Bool("final", true))
	}
	h.log.Info("heartbeat", attrs...)
}
