package telemetry

// Canonical series names. The heartbeat and the smoke tests read these, so
// they live here rather than being retyped at every wiring site.
const (
	// Scheduler (internal/sched) — shared by every runner in the process:
	// the sweep pool, the wave-search evaluator pools, and the per-figure
	// stage premeasure pools all Add/Sub the same gauges.
	MetricQueueDepth     = "hef_sched_queue_depth"
	MetricInflight       = "hef_sched_inflight_jobs"
	MetricRetryingJobs   = "hef_sched_retrying_jobs"
	MetricSubmitted      = "hef_sched_jobs_submitted_total"
	MetricJobsDone       = "hef_sched_jobs_done_total"
	MetricJobsFailed     = "hef_sched_jobs_failed_total"
	MetricJobsShed       = "hef_sched_jobs_shed_total"
	MetricRetries        = "hef_sched_retries_total"
	MetricBreakerDenials = "hef_sched_breaker_denials_total"
	MetricBreakersOpen   = "hef_sched_breakers_open"
	MetricJobSeconds     = "hef_sched_job_seconds"

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

// SchedMetrics is the instrument set a sched.Runner bumps. Every method is
// nil-receiver-safe, so an uninstrumented runner pays one branch per event.
type SchedMetrics struct {
	QueueDepth, Inflight, Retrying, BreakersOpen *Gauge
	Submitted, Done, Failed, Shed, RetriesTotal  *Counter
	BreakerDenials                               *Counter
	JobSeconds                                   *Histogram
}

// NewSchedMetrics registers the scheduler series on r (nil r → nil set).
func NewSchedMetrics(r *Registry) *SchedMetrics {
	if r == nil {
		return nil
	}
	return &SchedMetrics{
		QueueDepth:     r.Gauge(MetricQueueDepth, "jobs admitted but not yet running, across every runner"),
		Inflight:       r.Gauge(MetricInflight, "jobs currently executing"),
		Retrying:       r.Gauge(MetricRetryingJobs, "jobs waiting out a retry backoff"),
		BreakersOpen:   r.Gauge(MetricBreakersOpen, "circuit breakers currently open"),
		Submitted:      r.Counter(MetricSubmitted, "jobs accepted by admission control"),
		Done:           r.Counter(MetricJobsDone, "jobs that reached a successful terminal state"),
		Failed:         r.Counter(MetricJobsFailed, "jobs that failed terminally (retries exhausted or interrupted)"),
		Shed:           r.Counter(MetricJobsShed, "jobs rejected because the bounded queue was full"),
		RetriesTotal:   r.Counter(MetricRetries, "retry re-queues across all jobs"),
		BreakerDenials: r.Counter(MetricBreakerDenials, "attempts denied by an open circuit breaker"),
		JobSeconds:     r.Histogram(MetricJobSeconds, "job attempt latency in seconds", nil),
	}
}

// OnSubmit records an accepted job entering the queue.
func (m *SchedMetrics) OnSubmit() {
	if m == nil {
		return
	}
	m.Submitted.Inc()
	m.QueueDepth.Add(1)
}

// OnShed records an admission-control rejection.
func (m *SchedMetrics) OnShed() {
	if m == nil {
		return
	}
	m.Shed.Inc()
}

// OnStart records a job leaving the queue for a worker.
func (m *SchedMetrics) OnStart() {
	if m == nil {
		return
	}
	m.QueueDepth.Add(-1)
	m.Inflight.Add(1)
}

// OnAttemptEnd records an attempt finishing after sec seconds.
func (m *SchedMetrics) OnAttemptEnd(sec float64) {
	if m == nil {
		return
	}
	m.Inflight.Add(-1)
	m.JobSeconds.Observe(sec)
}

// OnOutcome records a terminal state.
func (m *SchedMetrics) OnOutcome(done bool) {
	if m == nil {
		return
	}
	if done {
		m.Done.Inc()
	} else {
		m.Failed.Inc()
	}
}

// OnRetry records a job entering its backoff wait.
func (m *SchedMetrics) OnRetry() {
	if m == nil {
		return
	}
	m.RetriesTotal.Inc()
	m.Retrying.Add(1)
}

// OnRetryResolved records the backoff wait ending; requeued reports whether
// the job re-entered the queue (as opposed to being interrupted).
func (m *SchedMetrics) OnRetryResolved(requeued bool) {
	if m == nil {
		return
	}
	m.Retrying.Add(-1)
	if requeued {
		m.QueueDepth.Add(1)
	}
}

// OnBreakerDenial records an attempt denied by an open breaker.
func (m *SchedMetrics) OnBreakerDenial() {
	if m == nil {
		return
	}
	m.BreakerDenials.Inc()
}

// SetBreakersOpen publishes the current open-breaker count.
func (m *SchedMetrics) SetBreakersOpen(n int) {
	if m == nil {
		return
	}
	m.BreakersOpen.Set(int64(n))
}

// SweepMetrics is the instrument set sched.RunSweep bumps.
type SweepMetrics struct {
	Tasks, Interrupted          *Gauge
	TasksDone, Resumed, Flushes *Counter
	CheckpointSeconds           *Histogram
}

// NewSweepMetrics registers the sweep series on r (nil r → nil set).
func NewSweepMetrics(r *Registry) *SweepMetrics {
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
	}
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

// OnTaskDone records one task completing in this process.
func (m *SweepMetrics) OnTaskDone() {
	if m == nil {
		return
	}
	m.TasksDone.Inc()
}

// OnFlush records one checkpoint flush taking sec seconds.
func (m *SweepMetrics) OnFlush(sec float64) {
	if m == nil {
		return
	}
	m.Flushes.Inc()
	m.CheckpointSeconds.Observe(sec)
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
