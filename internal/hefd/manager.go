package hefd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hef/internal/core"
	"hef/internal/experiments"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
	"hef/internal/telemetry"
)

// Config tunes a Manager. DataDir is required; every other zero value
// selects a sensible default.
type Config struct {
	// DataDir holds the write-ahead job log and the per-job sweep
	// checkpoints. It is the daemon's durable identity: restart with the
	// same directory and every accepted job is recovered.
	DataDir string
	// MemoDir, when non-empty, backs the shared measurement memo with a
	// durable store so measurements persist across restarts and deduplicate
	// across tenants ("" keeps the memo in memory only).
	MemoDir string
	// Workers is the number of jobs run concurrently (<= 0 selects 1).
	Workers int
	// QueueSize bounds accepted-but-unfinished jobs (queued + running);
	// beyond it submissions shed with 429 (<= 0 selects 64).
	QueueSize int
	// Quota configures the per-tenant token buckets (zero disables).
	Quota QuotaConfig
	// Breaker configures the per-tenant admission breaker (zero disables;
	// a zero Cooldown selects 30s).
	Breaker sched.BreakerConfig
	// Retention bounds the data directory: expired terminal jobs are
	// tombstoned by a periodic sweep and the WAL is compacted at startup
	// (zero retains everything forever).
	Retention RetentionConfig
	// WALMaxBytes compacts the job log in place, while the daemon is
	// serving, whenever it grows past this many bytes (0 disables online
	// compaction; the startup compaction under Retention still applies).
	// The rewrite is the same atomic old-or-new discipline as the startup
	// compaction, so a kill -9 mid-compaction costs nothing.
	WALMaxBytes int64
	// AuthKeys, when non-empty, is the API key file: requests must present
	// a listed key, and the key decides the tenant. Reloadable at runtime
	// via ReloadKeys (cmd/hefd wires it to SIGHUP). "" disables auth.
	AuthKeys string
	// Clock abstracts time for quota/breaker/backoff tests (nil = real).
	Clock sched.Clock
	// FS is the filesystem for the job log and checkpoints (nil = real).
	FS store.FS
	// LogW receives operational warnings (default os.Stderr).
	LogW io.Writer
	// SweepMetrics threads the telemetry session's instruments into each
	// job's sweep; nil-safe.
	SweepMetrics *telemetry.SweepMetrics

	// runOp replaces the production per-operator pipeline in tests (nil
	// selects the real optimizer). Unexported: only this package's tests
	// can reach it, and it is installed before the workers start so
	// recovered jobs see it too.
	runOp func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error)
}

// Counts is a snapshot of the manager's job population and admission
// counters, bridged into /metrics as gauges.
type Counts struct {
	Queued, Running, Parked            int
	Done, Failed, Cancelled            int
	Accepted, Shed, Recovered, Resumed int
	Expired, Compactions               int
	AuthDenied, KeyReloads             int
}

// Manager supervises the accepted jobs: admission, the bounded queue, the
// worker pool, write-ahead persistence, crash recovery, and graceful
// drain. Create with New, serve with the api handler, stop with Close.
type Manager struct {
	cfg      Config
	clock    sched.Clock
	fs       store.FS
	logW     io.Writer
	wal      *store.Log
	quotas   *quotas
	breakers *sched.Breakers
	cache    *memo.Cache
	mstore   *store.MemoStore

	// keys is the active API keyring (nil when auth is off). Swapped
	// atomically by ReloadKeys so requests never see a half-built ring.
	keys atomic.Pointer[Keyring]
	// persistAdm enables the admission.state snapshot: only set when
	// quotas or breakers can actually hold state worth persisting, so the
	// default configuration's I/O profile is unchanged.
	persistAdm bool
	admPath    string
	retainStop chan struct{}

	mu           sync.Mutex
	cond         *sync.Cond
	jobs         map[string]*job
	reports      map[string]*sharedReport // done jobs' reports by content
	order        []string                 // job IDs in acceptance order
	pending      []*job                   // FIFO of queued jobs
	seq          int
	runningN     int
	counts       Counts
	queueBackoff shedBackoff
	draining     bool
	closed       bool
	walWarned    bool
	admWarned    bool
	walRecords   int // live record count (replayed at open + appended since), for compaction decisions

	wg sync.WaitGroup

	// runOp executes one operator of one job; tests stub it to make
	// admission and chaos behavior deterministic without simulating.
	runOp func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error)
}

// New opens (or creates) the job log in cfg.DataDir, replays it, re-queues
// every non-terminal job, and starts the worker pool. The returned manager
// is serving: recovered jobs begin running immediately.
func New(cfg Config) (*Manager, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("hefd: DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = sched.RealClock{}
	}
	if cfg.FS == nil {
		cfg.FS = store.OS
	}
	if cfg.LogW == nil {
		cfg.LogW = os.Stderr
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = 30 * time.Second
	}

	m := &Manager{
		cfg:          cfg,
		clock:        cfg.Clock,
		fs:           cfg.FS,
		logW:         cfg.LogW,
		quotas:       newQuotas(cfg.Quota),
		breakers:     sched.NewBreakers(cfg.Breaker),
		cache:        memo.NewCache(),
		jobs:         map[string]*job{},
		reports:      map[string]*sharedReport{},
		queueBackoff: shedBackoff{base: 100 * time.Millisecond, max: 5 * time.Second},
	}
	m.cond = sync.NewCond(&m.mu)
	m.runOp = m.optimizeOp
	if cfg.runOp != nil {
		m.runOp = cfg.runOp
	}

	if cfg.AuthKeys != "" {
		ring, err := LoadKeyring(cfg.FS, cfg.AuthKeys)
		if err != nil {
			return nil, err
		}
		m.keys.Store(ring)
	}

	wal, err := store.OpenLog(cfg.FS, filepath.Join(cfg.DataDir, JobLogName), m.replay)
	if err != nil {
		return nil, fmt.Errorf("hefd: job log: %w", err)
	}
	m.wal = wal
	if n := wal.Salvaged(); n > 0 {
		fmt.Fprintf(m.logW, "hefd: job log: quarantined %d bytes of torn tail\n", n)
	}
	// Tombstones replayed out of m.jobs leave dangling ids in the
	// acceptance order; drop them before anything walks it.
	keep := m.order[:0]
	for _, id := range m.order {
		if m.jobs[id] != nil {
			keep = append(keep, id)
		}
	}
	m.order = keep

	// Admission state restores before any request can spend from it. A
	// torn or foreign snapshot falls back to the zero state with one
	// warning — admission is a protection layer, not a source of truth,
	// so corruption here must never stop the daemon.
	m.persistAdm = cfg.Quota.Rate > 0 || cfg.Breaker.Threshold > 0 || m.Keys().Len() > 0
	m.admPath = filepath.Join(cfg.DataDir, AdmissionStateName)
	if m.persistAdm {
		store.RemoveStaleTemps(cfg.FS, m.admPath)
		if data, err := cfg.FS.ReadFile(m.admPath); err == nil {
			if st, perr := ParseAdmissionState(data); perr != nil {
				fmt.Fprintf(m.logW, "hefd: %s unusable, starting from zero admission state: %v\n", AdmissionStateName, perr)
			} else {
				m.quotas.restore(st.Buckets)
				m.breakers.Restore(st.Breakers)
			}
		}
	}

	// Retention runs once before the compaction below, so a plain restart
	// is enough to enforce a newly tightened policy.
	if cfg.Retention.enabled() {
		m.Sweep()
		if err := m.compact(); err != nil {
			fmt.Fprintf(m.logW, "hefd: startup compaction skipped: %v\n", err)
		}
	}

	// One shared measurement memo across all tenants and jobs: identical
	// measurements deduplicate service-wide. Persistence failures degrade
	// to memory-only, exactly like the CLI tools.
	if cfg.MemoDir != "" {
		st, err := store.Open(cfg.MemoDir)
		if err != nil {
			fmt.Fprintf(m.logW, "hefd: -memo-dir %s unusable, continuing without persistence: %v\n", cfg.MemoDir, err)
		} else {
			m.mstore = st
			m.cache = st.Cache()
		}
	}

	// Re-queue every non-terminal job in acceptance order. Recovered jobs
	// were admitted before the crash, so they bypass admission control —
	// the queue bound applies to new work, never to the recovery backlog.
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.state = StateQueued
		m.pending = append(m.pending, j)
		m.counts.Recovered++
	}

	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	if cfg.Retention.enabled() {
		m.retainStop = make(chan struct{})
		m.wg.Add(1)
		go m.retentionLoop(m.retainStop)
	}
	return m, nil
}

// replay applies one job-log record while the log opens. Records arrive in
// append order, so the last state recorded wins.
func (m *Manager) replay(payload []byte) error {
	rec, err := decodeJobRecord(payload)
	if err != nil {
		return err
	}
	m.walRecords++
	switch rec.Kind {
	case walSpec:
		if rec.Spec == nil || rec.ID == "" {
			return nil
		}
		if _, dup := m.jobs[rec.ID]; dup {
			return nil
		}
		spec := *rec.Spec
		spec.Normalize()
		j := &job{id: rec.ID, seq: rec.Seq, spec: spec, state: StateQueued, total: len(spec.Ops)}
		m.jobs[rec.ID] = j
		m.order = append(m.order, rec.ID)
		if rec.Seq >= m.seq {
			m.seq = rec.Seq + 1
		}
	case walState:
		if j := m.jobs[rec.ID]; j != nil {
			j.state = rec.State
			j.errMsg = rec.Error
			if rec.AtMS > 0 {
				j.terminalAt = time.UnixMilli(rec.AtMS)
			}
		}
	case walReport:
		if j := m.jobs[rec.ID]; j != nil {
			m.attachReport(j, rec.Report)
			j.done = j.total
		}
	case walTomb:
		// The job expired before the crash; its artifacts may or may not
		// have been deleted — the startup sweep's orphan pass finishes the
		// cleanup either way.
		m.forgetJob(rec.ID)
	case walSeq:
		// Compaction high-water mark: ids never restart below it even when
		// every job it covered has since expired.
		if rec.Seq > m.seq {
			m.seq = rec.Seq
		}
	}
	return nil
}

// attachReport gives done job j the report data, sharing the copy other
// jobs with the same report already hold. Callers hold m.mu (replay owns m
// outright).
func (m *Manager) attachReport(j *job, data string) {
	m.dropReport(j)
	r := m.reports[data]
	if r == nil {
		r = &sharedReport{data: data}
		m.reports[data] = r
	}
	r.refs++
	j.report = r
}

// dropReport detaches j's report; the last job holding a copy frees it.
func (m *Manager) dropReport(j *job) {
	if j.report == nil {
		return
	}
	if j.report.refs--; j.report.refs == 0 {
		delete(m.reports, j.report.data)
	}
	j.report = nil
}

// forgetJob removes an expired job from the job table. Callers hold m.mu
// (replay owns m outright).
func (m *Manager) forgetJob(id string) {
	if j := m.jobs[id]; j != nil {
		m.dropReport(j)
		delete(m.jobs, id)
	}
}

// compact rewrites the WAL down to the live jobs: one high-water sequence
// record, then per surviving job its spec, terminal state, and report.
// Tombstoned and superseded records vanish. The rewrite is atomic (old or
// new log, never a mix), so this is safe to run at every startup.
func (m *Manager) compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked()
}

// compactLocked is compact's body; callers hold m.mu.
func (m *Manager) compactLocked() error {
	recs := make([]any, 0, 1+3*len(m.order))
	recs = append(recs, walRecord{Kind: walSeq, Seq: m.seq})
	for _, id := range m.order {
		j := m.jobs[id]
		recs = append(recs, walRecord{Kind: walSpec, ID: j.id, Seq: j.seq, Spec: &j.spec})
		// Non-terminal jobs re-queue on replay, so their spec alone is the
		// whole story; terminal jobs keep their final transition and report.
		if j.state.Terminal() {
			rec := walRecord{Kind: walState, ID: j.id, State: j.state, Error: j.errMsg}
			if !j.terminalAt.IsZero() {
				rec.AtMS = j.terminalAt.UnixMilli()
			}
			recs = append(recs, rec)
			if j.state == StateDone && j.report != nil {
				recs = append(recs, walRecord{Kind: walReport, ID: j.id, Report: j.report.data})
			}
		}
	}
	if m.walRecords <= len(recs) {
		return nil // the log is already minimal; a rewrite would only burn I/O
	}
	if err := m.wal.Compact(recs); err != nil {
		return err
	}
	m.walRecords = len(recs)
	m.counts.Compactions++
	return nil
}

// maybeCompact compacts the job log in place once it has outgrown
// Config.WALMaxBytes. It runs after a retention sweep, and maybeCompactLocked
// in the step that finishes a job — the two moments the log accretes
// shed-able records — never on the submission path, so admission latency
// stays bounded. A log already at its minimal record set is left alone
// even above the threshold (large live reports can legitimately exceed it;
// rewriting would only burn I/O).
func (m *Manager) maybeCompact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maybeCompactLocked()
}

// maybeCompactLocked is maybeCompact's body; callers hold m.mu.
func (m *Manager) maybeCompactLocked() {
	if m.cfg.WALMaxBytes <= 0 || m.wal.Size() < m.cfg.WALMaxBytes {
		return
	}
	if err := m.compactLocked(); err != nil {
		fmt.Fprintf(m.logW, "hefd: online compaction skipped: %v\n", err)
	}
}

// MemoStore exposes the durable memo store for telemetry bridging (nil
// when the memo is memory-only).
func (m *Manager) MemoStore() *store.MemoStore { return m.mstore }

// Counts snapshots the job population for gauges and tests.
func (m *Manager) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counts
	c.Queued = len(m.pending)
	c.Running = m.runningN
	for _, j := range m.jobs {
		switch j.state {
		case StateParked:
			c.Parked++
		case StateDone:
			c.Done++
		case StateFailed:
			c.Failed++
		case StateCancelled:
			c.Cancelled++
		}
	}
	return c
}

// Submit runs admission control and, when the job is accepted, persists it
// write-ahead and enqueues it. The error is nil (accepted), a wrapped
// ErrInvalidSpec (400), a *ShedError (429/503), or a wrapped
// store.ErrLogUnavailable (503): nothing here blocks, so submission
// latency is bounded at any load.
func (m *Manager) Submit(spec JobSpec) (JobView, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	seen := map[string]bool{}
	for _, op := range spec.Ops {
		if seen[op] {
			return JobView{}, fmt.Errorf("%w: duplicate op %q", ErrInvalidSpec, op)
		}
		seen[op] = true
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	if m.draining || m.closed {
		m.counts.Shed++
		return JobView{}, &ShedError{Code: ShedDraining, Message: "daemon is draining; resubmit to the next instance"}
	}
	if ok, wait := m.breakers.Allow(spec.Tenant, now); !ok {
		m.counts.Shed++
		return JobView{}, &ShedError{
			Code:       ShedBreakerOpen,
			Message:    fmt.Sprintf("tenant %q circuit breaker is open after repeated job failures", spec.Tenant),
			RetryAfter: wait,
		}
	}
	if len(m.pending)+m.runningN >= m.cfg.QueueSize {
		m.counts.Shed++
		return JobView{}, &ShedError{
			Code:       ShedQueueFull,
			Message:    fmt.Sprintf("job queue at capacity (%d)", m.cfg.QueueSize),
			RetryAfter: m.queueBackoff.next(),
		}
	}
	ok, wait := m.quotas.take(spec.Tenant, now, m.Keys().QuotaFor(spec.Tenant))
	// Whether the take succeeded or not, the bucket moved (level or refill
	// anchor); persist it so a restart cannot refund it.
	m.saveAdmissionLocked()
	if !ok {
		m.counts.Shed++
		return JobView{}, &ShedError{
			Code:       ShedQuota,
			Message:    fmt.Sprintf("tenant %q quota exhausted", spec.Tenant),
			RetryAfter: wait,
		}
	}

	id := fmt.Sprintf("j%06d-%.8s", m.seq, spec.Fingerprint())
	j := &job{id: id, seq: m.seq, spec: spec, state: StateQueued, total: len(spec.Ops)}
	// Write-ahead: the job is durable before it is acknowledged, so a
	// kill -9 one instruction after the 202 cannot lose it.
	if err := m.wal.Append(walRecord{Kind: walSpec, ID: id, Seq: m.seq, Spec: &spec}); err != nil {
		return JobView{}, err
	}
	m.walRecords++
	m.seq++
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.pending = append(m.pending, j)
	m.counts.Accepted++
	m.queueBackoff.reset()
	m.cond.Signal()
	return j.view(), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.view(), nil
}

// List returns every job (optionally filtered by tenant) in acceptance
// order.
func (m *Manager) List(tenant string) []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		views = append(views, j.view())
	}
	return views
}

// Report returns the final RunReport bytes of a done job, verbatim as
// persisted — the byte-identity guarantee lives here.
func (m *Manager) Report(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.state != StateDone || j.report == nil {
		return nil, fmt.Errorf("%w: job %q is %s", ErrReportNotReady, id, j.state)
	}
	return []byte(j.report.data), nil
}

// Cancel requests a job's cancellation: a queued job is removed and
// terminal immediately, a running job's context is cancelled (its sweep
// drains, flushes its checkpoint, and the job resolves cancelled), and a
// terminal job is left untouched (idempotent).
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return JobView{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateQueued, StateParked:
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		m.setTerminalLocked(j, StateCancelled, "cancelled before start")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), nil
}

// setTerminalLocked records a terminal (or parked) transition in memory
// and the WAL. Terminal jobs also lose their checkpoint right away — the
// report (or the failure) is the durable outcome now, and keeping the
// checkpoint would let the data dir grow with every finished job. Parked
// jobs keep theirs: it is exactly what the next start resumes from.
// Callers hold m.mu.
func (m *Manager) setTerminalLocked(j *job, state JobState, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	rec := walRecord{Kind: walState, ID: j.id, State: state, Error: errMsg}
	if state.Terminal() {
		j.terminalAt = m.clock.Now()
		rec.AtMS = j.terminalAt.UnixMilli()
	}
	m.walAppendLocked(rec)
	if state.Terminal() {
		m.removeJobArtifacts(j.id)
	}
}

// walAppendLocked appends a non-admission record, degrading with a single
// warning instead of failing the job: the result is still in memory and the
// run completes, only durability of this transition is lost. (Submit's
// write-ahead append does NOT go through here — acceptance must be
// durable.)
func (m *Manager) walAppendLocked(rec walRecord) {
	err := m.wal.Append(rec)
	if err == nil {
		m.walRecords++
		return
	}
	if !m.walWarned {
		m.walWarned = true
		fmt.Fprintf(m.logW, "hefd: job log degraded, further transitions unpersisted: %v\n", err)
	}
}

// worker pulls queued jobs and runs them until the manager closes. During
// a drain workers stop pulling, so queued jobs park for the next start.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && (len(m.pending) == 0 || m.draining) {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.runningN++
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.state = StateRunning
		m.walAppendLocked(walRecord{Kind: walState, ID: j.id, State: StateRunning})
		m.mu.Unlock()

		m.runJob(ctx, j)
		cancel()

		m.mu.Lock()
		j.cancel = nil
		m.runningN--
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// ckptDir holds the per-job sweep checkpoints.
func (m *Manager) ckptDir() string {
	return filepath.Join(m.cfg.DataDir, "ckpt")
}

// ckptPath is the job's sweep checkpoint file.
func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.ckptDir(), id+".ckpt")
}

// runJob executes one job as a checkpointed sweep over its operators and
// records the terminal (or parked) outcome.
func (m *Manager) runJob(ctx context.Context, j *job) {
	spec := j.spec
	if spec.DeadlineMS > 0 {
		// The deadline is per run: a parked job gets a fresh allowance when
		// it resumes, so a drain never converts parked work into failures.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	tasks := make([]sched.Task[*obs.RunReport], 0, len(spec.Ops))
	for _, op := range spec.Ops {
		op := op
		tasks = append(tasks, sched.Task[*obs.RunReport]{
			ID: op,
			Run: func(jctx context.Context) (*obs.RunReport, error) {
				rep, err := m.runOp(jctx, spec, op)
				if err == nil {
					m.mu.Lock()
					j.done++
					m.mu.Unlock()
				}
				return rep, err
			},
		})
	}

	ckpt := m.ckptPath(j.id)
	if err := m.fs.MkdirAll(filepath.Dir(ckpt)); err != nil {
		m.mu.Lock()
		m.finishLocked(j, StateFailed, fmt.Sprintf("checkpoint dir: %v", err))
		m.maybeCompactLocked()
		m.mu.Unlock()
		return
	}
	sweep := func(resume string) (*sched.SweepResult[*obs.RunReport], error) {
		return sched.RunSweep(ctx, sched.SweepConfig{
			Tool:           "hefd",
			Fingerprint:    spec.Fingerprint(),
			CheckpointPath: ckpt,
			ResumePath:     resume,
			FS:             m.fs,
			Metrics:        m.cfg.SweepMetrics,
		}, tasks)
	}

	resume := ""
	if _, err := m.fs.Stat(ckpt); err == nil {
		resume = ckpt
	}
	res, err := sweep(resume)
	if res == nil && err != nil && resume != "" {
		// The checkpoint (and its .bak) failed to load — corrupt beyond the
		// rotation's reach. The job itself is still perfectly runnable;
		// restart it from scratch rather than failing accepted work.
		fmt.Fprintf(m.logW, "hefd: job %s: checkpoint unusable (%v); restarting from scratch\n", j.id, err)
		res, err = sweep("")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// The outcome below appends a state transition (and usually a report).
	// The log's bound is checked before the lock is released, in the same
	// critical section that publishes the outcome, so whoever observes the
	// job's final state also observes the compaction it triggered.
	defer m.maybeCompactLocked()
	if res != nil {
		j.done = len(res.Results)
		m.counts.Resumed += res.Resumed
		if res.PersistWarning != "" && !m.walWarned {
			fmt.Fprintf(m.logW, "hefd: job %s: %s\n", j.id, res.PersistWarning)
		}
	}
	switch {
	case err == nil:
		reports := make([]*obs.RunReport, 0, len(tasks))
		for _, t := range tasks {
			reports = append(reports, res.Results[t.ID])
		}
		rep := reports[0]
		if len(reports) > 1 {
			rep = experiments.MergeReports("hefd", reports...)
		}
		data, merr := rep.MarshalIndent()
		if merr != nil {
			m.finishLocked(j, StateFailed, fmt.Sprintf("marshal report: %v", merr))
			return
		}
		m.attachReport(j, string(data))
		m.walAppendLocked(walRecord{Kind: walReport, ID: j.id, Report: j.report.data})
		m.finishLocked(j, StateDone, "")
	case res != nil && res.Interrupted:
		switch {
		case j.cancelRequested:
			m.setTerminalLocked(j, StateCancelled, "cancelled while running")
			m.breakers.Release(spec.Tenant)
		case m.draining:
			m.setTerminalLocked(j, StateParked, "")
			m.breakers.Release(spec.Tenant)
		default:
			m.finishLocked(j, StateFailed, fmt.Sprintf("deadline exceeded after %dms", spec.DeadlineMS))
		}
	default:
		msg := err.Error()
		if errors.Is(err, sched.ErrJobsFailed) && len(res.Failed) > 0 {
			msg = fmt.Sprintf("%d/%d operators failed; first: %v", len(res.Failed), len(tasks), res.Failed[0].Err)
		}
		m.finishLocked(j, StateFailed, msg)
	}
}

// finishLocked records a job's terminal outcome and feeds the tenant
// breaker. Callers hold m.mu.
func (m *Manager) finishLocked(j *job, state JobState, errMsg string) {
	m.setTerminalLocked(j, state, errMsg)
	if state == StateDone {
		m.breakers.Success(j.spec.Tenant)
	} else {
		m.breakers.Failure(j.spec.Tenant, m.clock.Now())
	}
	// A breaker that opened (or stepped toward opening) must survive a
	// crash: a tenant cannot close its circuit by killing the daemon.
	m.saveAdmissionLocked()
}

// saveAdmissionLocked snapshots bucket and breaker state to
// admission.state via an atomic rewrite. Disabled configurations skip it
// entirely; a failing disk degrades to memory-only admission with a
// single warning, exactly like a degraded WAL. Callers hold m.mu.
func (m *Manager) saveAdmissionLocked() {
	if !m.persistAdm {
		return
	}
	buf, err := EncodeAdmissionState(AdmissionState{
		Buckets:  m.quotas.snapshot(),
		Breakers: m.breakers.Snapshot(),
	})
	if err == nil {
		err = store.RewriteFile(m.fs, m.admPath, buf)
	}
	if err != nil && !m.admWarned {
		m.admWarned = true
		fmt.Fprintf(m.logW, "hefd: %s unwritable, admission state is memory-only: %v\n", AdmissionStateName, err)
	}
}

// Keys returns the active keyring (nil when auth is disabled).
func (m *Manager) Keys() *Keyring { return m.keys.Load() }

// ReloadKeys re-reads the key file (cmd/hefd calls this on SIGHUP). On
// error the previous ring stays active: a fat-fingered edit must not lock
// every tenant out. In-flight jobs are untouched either way — the ring
// only gates new requests.
func (m *Manager) ReloadKeys() error {
	if m.cfg.AuthKeys == "" {
		return nil
	}
	ring, err := LoadKeyring(m.fs, m.cfg.AuthKeys)
	if err != nil {
		fmt.Fprintf(m.logW, "hefd: key reload failed, keeping previous keyring: %v\n", err)
		return err
	}
	m.keys.Store(ring)
	m.mu.Lock()
	m.counts.KeyReloads++
	m.mu.Unlock()
	fmt.Fprintf(m.logW, "hefd: keyring reloaded: %d keys\n", ring.Len())
	return nil
}

// noteAuthDenied counts a 401/403 for the metrics bridge.
func (m *Manager) noteAuthDenied() {
	m.mu.Lock()
	m.counts.AuthDenied++
	m.mu.Unlock()
}

// WALSize reports the job log's on-disk size for the metrics bridge.
func (m *Manager) WALSize() int64 { return m.wal.Size() }

// optimizeOp is the production runOp: hefopt's pipeline for one operator
// (core.Framework.OptimizeAndMeasure: optimize, then measure the scalar,
// SIMD, and optimal implementations) rendered as a versioned RunReport. Deterministic for a fixed spec, which
// is what makes checkpoint resume byte-identical.
func (m *Manager) optimizeOp(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
	tmpl, err := core.OperatorTemplate(op, spec.HID)
	if err != nil {
		return nil, err
	}
	fw, err := core.New(spec.CPU, core.WithTestElems(spec.Elems))
	if err != nil {
		return nil, err
	}
	res, err := fw.OptimizeAndMeasure(ctx, "hefd", tmpl, core.OptimizeOptions{
		Budget: spec.Budget, Parallel: spec.Parallel, Memo: m.cache,
	})
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// StartDrain flips the manager into draining: new submissions shed with a
// typed error, workers stop pulling queued jobs, and every running job's
// context is cancelled so its sweep checkpoints and parks. Idempotent.
func (m *Manager) StartDrain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return
	}
	m.draining = true
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
}

// Close drains, waits for the workers, parks still-queued jobs, and
// releases the job log and memo store. After Close the data directory is a
// complete, consistent snapshot a new manager resumes from.
func (m *Manager) Close() error {
	m.StartDrain()
	m.mu.Lock()
	alreadyClosed := m.closed
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	if !alreadyClosed && m.retainStop != nil {
		close(m.retainStop)
	}
	m.wg.Wait()

	m.mu.Lock()
	for _, j := range m.pending {
		m.setTerminalLocked(j, StateParked, "")
	}
	m.pending = nil
	// One final snapshot so the drain's last breaker/bucket movements are
	// what the next instance restores.
	m.saveAdmissionLocked()
	m.mu.Unlock()

	err := m.wal.Close()
	if m.mstore != nil {
		if cerr := m.mstore.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
