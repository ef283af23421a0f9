package telemetry

import "time"

// Canonical series names. The heartbeat and the smoke tests read these, so
// they live here rather than being retyped at every wiring site.
const (
	// Sweep driver (sched.RunSweep).
	MetricSweepTasks       = "hef_sweep_tasks"
	MetricSweepDone        = "hef_sweep_tasks_done_total"
	MetricSweepResumed     = "hef_sweep_tasks_resumed_total"
	MetricSweepFlushes     = "hef_sweep_checkpoint_flushes_total"
	MetricCheckpointSecs   = "hef_sweep_checkpoint_seconds"
	MetricSweepInterrupted = "hef_sweep_interrupted"

	// Measurement memo (internal/memo + internal/store).
	MetricMemoHits      = "hef_memo_hits_total"
	MetricMemoMisses    = "hef_memo_misses_total"
	MetricMemoHitRate   = "hef_memo_hit_rate"
	MetricStoreLoaded   = "hef_store_loaded_total"
	MetricStorePersist  = "hef_store_persisted_total"
	MetricStoreQuar     = "hef_store_quarantined_total"
	MetricStoreDegraded = "hef_store_degraded"

	// HEF pruning search (internal/hef).
	MetricFrontierSize = "hef_search_frontier_size"
	MetricEvaluated    = "hef_search_candidates_evaluated_total"
	MetricPruned       = "hef_search_pruned_total"
	MetricWaves        = "hef_search_waves_total"
	MetricBestNS       = "hef_search_best_ns_per_elem"

	// Simulator (internal/uarch).
	MetricSimInstr         = "hef_uarch_instructions_total"
	MetricSimFastCycles    = "hef_uarch_fastpath_cycles_total"
	MetricSimSlowCycles    = "hef_uarch_slowpath_cycles_total"
	MetricSimRuns          = "hef_uarch_runs_total"
	MetricSimMinstrRate    = "hef_uarch_minstr_per_sec"
	MetricSimIdleSkipped   = "hef_uarch_idle_skipped_cycles_total"
	MetricSimSkelHits      = "hef_uarch_skeleton_hits_total"
	MetricSimSkelMisses    = "hef_uarch_skeleton_misses_total"
	MetricSimReplayPeriods = "hef_uarch_replay_periods_total"

	// Process.
	MetricUptime = "hef_uptime_seconds"

	// hefd daemon (cmd/hefd bridges Manager.Counts as polled gauges).
	MetricHefdQueued      = "hefd_jobs_queued"
	MetricHefdRunning     = "hefd_jobs_running"
	MetricHefdDone        = "hefd_jobs_done"
	MetricHefdFailed      = "hefd_jobs_failed"
	MetricHefdAccepted    = "hefd_jobs_accepted_total"
	MetricHefdShed        = "hefd_jobs_shed_total"
	MetricHefdRecovered   = "hefd_jobs_recovered_total"
	MetricHefdExpired     = "hefd_jobs_expired_total"
	MetricHefdCompactions = "hefd_wal_compactions_total"
	MetricHefdWALBytes    = "hefd_wal_bytes"
	MetricHefdAuthDenied  = "hefd_auth_denied_total"
	MetricHefdKeyReloads  = "hefd_key_reloads_total"

	// Distributed sweep coordinator (internal/dist via cmd/hefsweep).
	MetricDistRanges      = "hef_dist_ranges"
	MetricDistRangesDone  = "hef_dist_ranges_done"
	MetricDistLeases      = "hef_dist_leases_active"
	MetricDistGranted     = "hef_dist_leases_granted_total"
	MetricDistExpired     = "hef_dist_leases_expired_total"
	MetricDistSpeculative = "hef_dist_speculative_grants_total"
	MetricDistCommitted   = "hef_dist_ranges_committed_total"
	MetricDistDuplicates  = "hef_dist_duplicate_commits_total"
	MetricDistHeartbeats  = "hef_dist_heartbeats_total"
	MetricDistFailures    = "hef_dist_range_failures_total"
	MetricDistViolations  = "hef_dist_determinism_violations_total"
)

// SweepMetrics is the instrument set sched.RunSweep bumps: progress
// series on the registry, and lifecycle spans (the sweep, a run per task, a
// flush per checkpoint save) on the tracer, which may be nil.
type SweepMetrics struct {
	Tasks, Interrupted          *Gauge
	TasksDone, Resumed, Flushes *Counter
	CheckpointSeconds           *Histogram
	spans                       *Tracer
}

// NewSweepMetrics registers the sweep series on r and records spans on
// spans (nil r → nil set).
func NewSweepMetrics(r *Registry, spans *Tracer) *SweepMetrics {
	if r == nil {
		return nil
	}
	return &SweepMetrics{
		Tasks:             r.Gauge(MetricSweepTasks, "tasks planned for the current sweep"),
		Interrupted:       r.Gauge(MetricSweepInterrupted, "1 while the sweep is draining after an interrupt"),
		TasksDone:         r.Counter(MetricSweepDone, "sweep tasks completed, resumed-from-checkpoint included"),
		Resumed:           r.Counter(MetricSweepResumed, "sweep tasks satisfied from the resume checkpoint"),
		Flushes:           r.Counter(MetricSweepFlushes, "checkpoint flushes"),
		CheckpointSeconds: r.Histogram(MetricCheckpointSecs, "checkpoint flush latency in seconds", nil),
		spans:             spans,
	}
}

// OnSweep opens the span of the whole sweep and returns the closure that
// ends it.
func (m *SweepMetrics) OnSweep(tool string) func() {
	if m == nil {
		return func() {}
	}
	return m.spans.Begin("sweep", tool)
}

// OnPlan publishes the sweep's task total and resumed count.
func (m *SweepMetrics) OnPlan(total, resumed int) {
	if m == nil {
		return
	}
	m.Tasks.Set(int64(total))
	m.Resumed.Add(uint64(resumed))
	m.TasksDone.Add(uint64(resumed))
}

// OnRun records the run span of task id, started at start and ending now.
func (m *SweepMetrics) OnRun(id string, start time.Time) {
	if m == nil {
		return
	}
	m.spans.Record("run", id, start, time.Since(start))
}

// OnTaskDone records one task completing in this process.
func (m *SweepMetrics) OnTaskDone() {
	if m == nil {
		return
	}
	m.TasksDone.Inc()
}

// OnFlush records one checkpoint flush, started at start and ending now.
func (m *SweepMetrics) OnFlush(start time.Time) {
	if m == nil {
		return
	}
	dur := time.Since(start)
	m.Flushes.Inc()
	m.CheckpointSeconds.Observe(dur.Seconds())
	m.spans.Record("checkpoint", "flush", start, dur)
}

// OnInterrupt flags the sweep as draining.
func (m *SweepMetrics) OnInterrupt() {
	if m == nil {
		return
	}
	m.Interrupted.Set(1)
}

// DistMetrics is the instrument set the distributed sweep coordinator
// bumps: the lease lifecycle (grants, heartbeats, expiries, speculative
// re-dispatch) and the commit path (commits, byte-identical duplicates,
// determinism violations).
type DistMetrics struct {
	Ranges, RangesDone, LeasesActive *Gauge
	Granted, Expired, Speculative    *Counter
	Committed, Duplicates            *Counter
	Heartbeats, Failures, Violations *Counter
}

// NewDistMetrics registers the dist series on r (nil r → nil set).
func NewDistMetrics(r *Registry) *DistMetrics {
	if r == nil {
		return nil
	}
	return &DistMetrics{
		Ranges:       r.Gauge(MetricDistRanges, "task ranges in the registered sweep plan"),
		RangesDone:   r.Gauge(MetricDistRangesDone, "task ranges durably committed"),
		LeasesActive: r.Gauge(MetricDistLeases, "live leases held by workers"),
		Granted:      r.Counter(MetricDistGranted, "leases granted, speculative included"),
		Expired:      r.Counter(MetricDistExpired, "leases lapsed without a heartbeat"),
		Speculative:  r.Counter(MetricDistSpeculative, "speculative re-dispatches of straggling ranges"),
		Committed:    r.Counter(MetricDistCommitted, "ranges committed durably for the first time"),
		Duplicates:   r.Counter(MetricDistDuplicates, "byte-identical duplicate commits deduped"),
		Heartbeats:   r.Counter(MetricDistHeartbeats, "lease renewals received"),
		Failures:     r.Counter(MetricDistFailures, "worker failure reports for a range"),
		Violations:   r.Counter(MetricDistViolations, "duplicate commits whose bytes differed"),
	}
}

// OnGrant records a lease grant.
func (m *DistMetrics) OnGrant(speculative bool) {
	if m == nil {
		return
	}
	m.Granted.Inc()
	if speculative {
		m.Speculative.Inc()
	}
}

// OnExpire records n leases lapsing.
func (m *DistMetrics) OnExpire(n int) {
	if m == nil {
		return
	}
	m.Expired.Add(uint64(n))
}

// OnHeartbeat records one lease renewal.
func (m *DistMetrics) OnHeartbeat() {
	if m == nil {
		return
	}
	m.Heartbeats.Inc()
}

// OnCommit records a range commit; duplicate marks a byte-identical replay.
func (m *DistMetrics) OnCommit(duplicate bool) {
	if m == nil {
		return
	}
	if duplicate {
		m.Duplicates.Inc()
	} else {
		m.Committed.Inc()
	}
}

// OnRangeFailure records a worker failure report.
func (m *DistMetrics) OnRangeFailure() {
	if m == nil {
		return
	}
	m.Failures.Inc()
}

// OnViolation records a duplicate commit whose bytes differed.
func (m *DistMetrics) OnViolation() {
	if m == nil {
		return
	}
	m.Violations.Inc()
}

// SetRanges publishes the plan's range total and committed count.
func (m *DistMetrics) SetRanges(total, done int) {
	if m == nil {
		return
	}
	m.Ranges.Set(int64(total))
	m.RangesDone.Set(int64(done))
}

// SetLeasesActive publishes the live lease count.
func (m *DistMetrics) SetLeasesActive(n int) {
	if m == nil {
		return
	}
	m.LeasesActive.Set(int64(n))
}

// SearchMetrics is the instrument set the HEF pruning search bumps. With
// several searches running concurrently (a multi-operator batch) the
// counters aggregate and the gauges carry the most recent wave's values.
type SearchMetrics struct {
	FrontierSize      *Gauge
	Evaluated, Pruned *Counter
	Waves             *Counter
	BestNSPerElem     *FloatGauge
}

// NewSearchMetrics registers the search series on r (nil r → nil set).
func NewSearchMetrics(r *Registry) *SearchMetrics {
	if r == nil {
		return nil
	}
	return &SearchMetrics{
		FrontierSize:  r.Gauge(MetricFrontierSize, "candidates in the current search frontier"),
		Evaluated:     r.Counter(MetricEvaluated, "candidate nodes evaluated across all searches"),
		Pruned:        r.Counter(MetricPruned, "candidate nodes pruned to the end list"),
		Waves:         r.Counter(MetricWaves, "search frontiers expanded"),
		BestNSPerElem: r.FloatGauge(MetricBestNS, "best per-element cost found so far, nanoseconds"),
	}
}

// OnWave records a frontier of the given size being expanded.
func (m *SearchMetrics) OnWave(frontier int) {
	if m == nil {
		return
	}
	m.Waves.Inc()
	m.FrontierSize.Set(int64(frontier))
}

// OnEvaluated records one candidate evaluation and whether it was pruned.
func (m *SearchMetrics) OnEvaluated(pruned bool) {
	if m == nil {
		return
	}
	m.Evaluated.Inc()
	if pruned {
		m.Pruned.Inc()
	}
}

// OnBest publishes a new best-so-far per-element cost in nanoseconds.
func (m *SearchMetrics) OnBest(nsPerElem float64) {
	if m == nil {
		return
	}
	m.BestNSPerElem.Set(nsPerElem)
}

// OnSearchEnd clears the frontier gauge.
func (m *SearchMetrics) OnSearchEnd() {
	if m == nil {
		return
	}
	m.FrontierSize.Set(0)
}
