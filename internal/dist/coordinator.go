package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"hef/internal/sched"
	"hef/internal/store"
	"hef/internal/telemetry"
)

// Config shapes a Coordinator.
type Config struct {
	// DataDir holds the sweep journal. Required: a coordinator that cannot
	// journal cannot promise crash recovery.
	DataDir string
	// FS is the filesystem (nil selects the real one).
	FS store.FS

	// RangeSize is the shard width in tasks (<= 0 selects 8). The value in
	// an existing journal wins over this, so a restart under a different
	// flag keeps the sharding the journal was recorded against.
	RangeSize int
	// LeaseTTL is how long a grant stays live without a heartbeat
	// (<= 0 selects 15s).
	LeaseTTL time.Duration
	// StragglerAfter is how long a range may stay leased-but-incomplete
	// before a speculative second lease is granted (<= 0 selects 3×LeaseTTL).
	StragglerAfter time.Duration
	// MaxLeasesPerRange bounds concurrent leases on one range
	// (<= 0 selects 2: the original plus one speculative).
	MaxLeasesPerRange int
	// FailLimit is how many failure reports a range absorbs before the
	// sweep is declared failed (<= 0 selects 3).
	FailLimit int
	// WaitHint is the poll delay suggested to workers when every range is
	// leased and healthy (<= 0 selects LeaseTTL/4).
	WaitHint time.Duration

	// Clock abstracts time (nil selects the real clock).
	Clock sched.Clock
	// LogW receives the coordinator's operational log (nil discards).
	LogW io.Writer
	// Metrics, when non-nil, receives the dist_* instrument updates.
	Metrics *telemetry.DistMetrics
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.RangeSize <= 0 {
		out.RangeSize = 8
	}
	if out.LeaseTTL <= 0 {
		out.LeaseTTL = 15 * time.Second
	}
	if out.StragglerAfter <= 0 {
		out.StragglerAfter = 3 * out.LeaseTTL
	}
	if out.MaxLeasesPerRange <= 0 {
		out.MaxLeasesPerRange = 2
	}
	if out.FailLimit <= 0 {
		out.FailLimit = 3
	}
	if out.WaitHint <= 0 {
		out.WaitHint = out.LeaseTTL / 4
	}
	if out.Clock == nil {
		out.Clock = sched.RealClock{}
	}
	if out.LogW == nil {
		out.LogW = io.Discard
	}
	if out.FS == nil {
		out.FS = store.OS
	}
	return out
}

// plan is the journaled sweep identity: tool, fingerprint, and the
// deterministic task order, sharded once into ranges.
type plan struct {
	tool        string
	fingerprint string
	ids         []string
	hash        string
	rangeSize   int
	ranges      []sched.Range
}

// lease is one live grant of a range to a worker.
type lease struct {
	id          string
	worker      string
	rangeIdx    int
	expires     time.Time
	speculative bool
}

// rangeState tracks one shard's progress.
type rangeState struct {
	done     bool
	failures int
	// episodeStart is when the current leased episode began: the grant that
	// took the range from unleased to leased. Straggler detection measures
	// from here, so a re-grant after total lease loss restarts the clock.
	episodeStart time.Time
}

// Coordinator is the sweep's lease state machine: it shards the plan,
// leases ranges to workers, expires lapsed leases, speculatively
// re-dispatches stragglers, and commits content-addressed results — all
// behind a write-ahead journal so kill -9 resumes losslessly.
type Coordinator struct {
	cfg   Config
	clock sched.Clock
	logf  *log.Logger
	tel   *telemetry.DistMetrics

	mu       sync.Mutex
	jnl      *store.Log
	plan     *plan
	ranges   []rangeState
	results  map[string]json.RawMessage
	leases   map[string]*lease
	leaseSeq int
	doneN    int
	failed   string
	counts   Counts
	doneCh   chan struct{}
	closed   bool
	// lastContact is when a worker last made a protocol request (or the
	// coordinator started); UntilQuiet measures silence from it.
	lastContact time.Time
}

// NewCoordinator opens (or resumes) a coordinator over cfg.DataDir. An
// existing journal is replayed: the plan and every committed range come
// back, the lease-ID sequence resumes above its high-water mark, and the
// most recent grant of each incomplete range is re-armed with a fresh TTL —
// its worker may still be alive and heartbeat, and if not the lease lapses
// and the range is reassigned.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("dist: coordinator requires a data directory")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		clock:   cfg.Clock,
		logf:    log.New(cfg.LogW, "dist: ", log.LstdFlags|log.LUTC),
		tel:     cfg.Metrics,
		results: map[string]json.RawMessage{},
		leases:  map[string]*lease{},
		doneCh:  make(chan struct{}),
	}
	c.lastContact = c.clock.Now()

	// Replay: collect records first, then rebuild state, so grants and
	// results can be interpreted against the (earlier) plan record.
	var planRec *journalRecord
	type grantRec struct {
		seq, rangeIdx int
		worker        string
	}
	lastGrant := map[int]grantRec{} // rangeIdx → most recent grant
	var resultRecs []journalRecord
	jnl, err := store.OpenLog(cfg.FS, filepath.Join(cfg.DataDir, JournalName), func(payload []byte) error {
		rec, err := decodeJournalRecord(payload)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case jnlPlan:
			if planRec == nil {
				r := rec
				planRec = &r
			}
		case jnlGrant:
			if rec.Seq > c.leaseSeq {
				c.leaseSeq = rec.Seq
			}
			lastGrant[rec.RangeIdx] = grantRec{rec.Seq, rec.RangeIdx, rec.Worker}
		case jnlResult:
			resultRecs = append(resultRecs, rec)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	c.jnl = jnl
	if n := jnl.Salvaged(); n > 0 {
		c.logf.Printf("journal salvage: quarantined %d bytes of torn tail", n)
	}

	if planRec != nil {
		p, err := buildPlan(planRec.Tool, planRec.Fingerprint, planRec.TaskIDs, planRec.RangeSize)
		if err != nil {
			return nil, fmt.Errorf("dist: journaled plan: %w", err)
		}
		c.plan = p
		c.ranges = make([]rangeState, len(p.ranges))
		for _, rec := range resultRecs {
			if rec.RangeIdx < 0 || rec.RangeIdx >= len(p.ranges) {
				return nil, fmt.Errorf("dist: journaled result for range %d outside plan of %d ranges", rec.RangeIdx, len(p.ranges))
			}
			if c.ranges[rec.RangeIdx].done {
				continue
			}
			c.ranges[rec.RangeIdx].done = true
			c.doneN++
			for id, raw := range rec.Results {
				c.results[id] = raw
			}
		}
		now := c.clock.Now()
		for idx, g := range lastGrant {
			if idx < 0 || idx >= len(p.ranges) || c.ranges[idx].done {
				continue
			}
			l := &lease{
				id: leaseID(g.seq), worker: g.worker, rangeIdx: idx,
				expires: now.Add(cfg.LeaseTTL),
			}
			c.leases[l.id] = l
			c.ranges[idx].episodeStart = now
		}
		c.logf.Printf("resumed plan %s: %d/%d ranges done, %d leases re-armed",
			p.hash, c.doneN, len(p.ranges), len(c.leases))
		c.publishLocked()
		if c.doneN == len(p.ranges) {
			c.finishLocked("")
		}
	}
	return c, nil
}

func buildPlan(tool, fingerprint string, ids []string, rangeSize int) (*plan, error) {
	if tool == "" || fingerprint == "" || len(ids) == 0 {
		return nil, fmt.Errorf("plan missing tool, fingerprint, or tasks")
	}
	if rangeSize <= 0 {
		rangeSize = 1
	}
	return &plan{
		tool: tool, fingerprint: fingerprint, ids: ids,
		hash:      HashPlan(tool, fingerprint, ids),
		rangeSize: rangeSize,
		ranges:    sched.ShardRanges(len(ids), rangeSize),
	}, nil
}

func leaseID(seq int) string { return fmt.Sprintf("L%06d", seq) }

// RegisterPlan fixes the sweep plan on first call and verifies every later
// registration against it, so a worker running different flags is refused
// instead of silently mixing sweeps.
func (c *Coordinator) RegisterPlan(req *PlanRequest) (*PlanResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contactLocked()
	if c.plan == nil {
		p, err := buildPlan(req.Tool, req.Fingerprint, req.TaskIDs, c.cfg.RangeSize)
		if err != nil {
			return nil, errProto(http.StatusBadRequest, CodeInvalid, "%v", err)
		}
		if err := c.jnl.Append(journalRecord{
			Kind: jnlPlan, Tool: p.tool, Fingerprint: p.fingerprint,
			TaskIDs: p.ids, RangeSize: p.rangeSize,
		}); err != nil {
			return nil, errProto(http.StatusServiceUnavailable, CodeStorage, "%v", err)
		}
		c.plan = p
		c.ranges = make([]rangeState, len(p.ranges))
		c.logf.Printf("plan %s registered by %s: tool=%s %d tasks in %d ranges of %d",
			p.hash, req.Worker, p.tool, len(p.ids), len(p.ranges), p.rangeSize)
		c.publishLocked()
	} else if err := c.matchPlanLocked(req); err != nil {
		return nil, err
	}
	return &PlanResponse{
		PlanHash: c.plan.hash, Ranges: len(c.plan.ranges),
		RangeSize: c.plan.rangeSize, Done: c.doneN == len(c.plan.ranges),
	}, nil
}

func (c *Coordinator) matchPlanLocked(req *PlanRequest) error {
	p := c.plan
	if req.Tool != p.tool || req.Fingerprint != p.fingerprint {
		return errProto(http.StatusConflict, CodePlanMismatch,
			"coordinator runs tool=%q fingerprint=%q, worker brought tool=%q fingerprint=%q",
			p.tool, p.fingerprint, req.Tool, req.Fingerprint)
	}
	if HashPlan(req.Tool, req.Fingerprint, req.TaskIDs) != p.hash {
		return errProto(http.StatusConflict, CodePlanMismatch,
			"task list differs from the registered plan (%d tasks, hash %s)", len(p.ids), p.hash)
	}
	return nil
}

// requirePlanLocked maps the plan-hash preamble every post-registration
// request carries.
func (c *Coordinator) requirePlanLocked(planHash string) error {
	if c.plan == nil {
		return errProto(http.StatusConflict, CodeNoPlan, "no plan registered; register and retry")
	}
	if planHash != c.plan.hash {
		return errProto(http.StatusConflict, CodePlanMismatch,
			"request names plan %s, coordinator runs %s", planHash, c.plan.hash)
	}
	return nil
}

// Lease grants the caller a range: the first unleased incomplete range in
// task order, else a speculative second lease on a straggling range, else a
// wait hint (or Done when the sweep is complete).
func (c *Coordinator) Lease(req *LeaseRequest) (*LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contactLocked()
	if c.failed != "" {
		return nil, errProto(http.StatusConflict, CodeSweepFailed, "%s", c.failed)
	}
	if err := c.requirePlanLocked(req.PlanHash); err != nil {
		return nil, err
	}
	if c.doneN == len(c.plan.ranges) {
		return &LeaseResponse{Done: true}, nil
	}

	now := c.clock.Now()
	live := make(map[int][]*lease)
	for _, l := range c.leases {
		live[l.rangeIdx] = append(live[l.rangeIdx], l)
	}
	grant := func(idx int, speculative bool) (*LeaseResponse, error) {
		seq := c.leaseSeq + 1
		if err := c.jnl.Append(journalRecord{
			Kind: jnlGrant, Seq: seq, RangeIdx: idx, Worker: req.Worker,
		}); err != nil {
			return nil, errProto(http.StatusServiceUnavailable, CodeStorage, "%v", err)
		}
		c.leaseSeq = seq
		l := &lease{
			id: leaseID(seq), worker: req.Worker, rangeIdx: idx,
			expires: now.Add(c.cfg.LeaseTTL), speculative: speculative,
		}
		c.leases[l.id] = l
		if len(live[idx]) == 0 {
			c.ranges[idx].episodeStart = now
		}
		c.counts.Granted++
		if speculative {
			c.counts.Speculative++
		}
		c.tel.OnGrant(speculative)
		c.publishLocked()
		r := c.plan.ranges[idx]
		c.logf.Printf("lease %s: range %d %s → %s%s", l.id, idx, r, req.Worker,
			map[bool]string{true: " (speculative)", false: ""}[speculative])
		return &LeaseResponse{
			LeaseID: l.id, RangeIdx: idx, Range: r,
			TaskIDs: c.plan.ids[r.Start:r.End],
			TTLMS:   c.cfg.LeaseTTL.Milliseconds(), Speculative: speculative,
		}, nil
	}

	for idx := range c.ranges {
		if !c.ranges[idx].done && len(live[idx]) == 0 {
			return grant(idx, false)
		}
	}
	for idx := range c.ranges {
		rs := &c.ranges[idx]
		if rs.done || len(live[idx]) >= c.cfg.MaxLeasesPerRange {
			continue
		}
		if now.Sub(rs.episodeStart) < c.cfg.StragglerAfter {
			continue
		}
		held := false
		for _, l := range live[idx] {
			if l.worker == req.Worker {
				held = true
				break
			}
		}
		if !held {
			return grant(idx, true)
		}
	}
	return &LeaseResponse{WaitMS: c.cfg.WaitHint.Milliseconds()}, nil
}

// Heartbeat renews a lease. A lapsed or unknown lease is a typed refusal:
// the worker keeps computing (its commit is still welcome — results
// dedupe), it just knows the range may be re-dispatched.
func (c *Coordinator) Heartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contactLocked()
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		return nil, errProto(http.StatusConflict, CodeLeaseUnknown,
			"lease %s is not held by %s", req.LeaseID, req.Worker)
	}
	l.expires = c.clock.Now().Add(c.cfg.LeaseTTL)
	c.counts.Heartbeats++
	c.tel.OnHeartbeat()
	return &HeartbeatResponse{TTLMS: c.cfg.LeaseTTL.Milliseconds()}, nil
}

// Commit accepts a completed range. Commitment is lease-independent: the
// results are content-addressed by (fingerprint, task ID) and
// byte-deterministic, so work from a lapsed or speculative lease is as good
// as any. A range committed twice dedupes by byte comparison; a byte
// mismatch is a determinism violation and fails the sweep loudly — the
// merged report could no longer be trusted to equal a single-process run.
func (c *Coordinator) Commit(req *ResultRequest) (*ResultResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contactLocked()
	if err := c.requirePlanLocked(req.PlanHash); err != nil {
		return nil, err
	}
	p := c.plan
	if req.RangeIdx < 0 || req.RangeIdx >= len(p.ranges) {
		return nil, errProto(http.StatusBadRequest, CodeInvalid,
			"range_idx %d outside plan of %d ranges", req.RangeIdx, len(p.ranges))
	}
	r := p.ranges[req.RangeIdx]
	if req.Range != r {
		return nil, errProto(http.StatusBadRequest, CodeInvalid,
			"range %s does not match plan range %d = %s", req.Range, req.RangeIdx, r)
	}
	for _, id := range p.ids[r.Start:r.End] {
		if _, ok := req.Results[id]; !ok {
			return nil, errProto(http.StatusBadRequest, CodeInvalid,
				"results missing task %q of range %d", id, req.RangeIdx)
		}
	}

	// The committing lease may have lapsed — that is the at-least-once
	// window working as designed, worth counting but not refusing.
	late := req.LeaseID != ""
	if _, ok := c.leases[req.LeaseID]; ok {
		late = false
	}

	if c.ranges[req.RangeIdx].done {
		for _, id := range p.ids[r.Start:r.End] {
			if !bytes.Equal(c.results[id], req.Results[id]) {
				c.counts.Violations++
				c.tel.OnViolation()
				c.failLocked(fmt.Sprintf("determinism violation: task %q of range %d committed twice with different bytes", id, req.RangeIdx))
				return nil, errProto(http.StatusInternalServerError, CodeDeterminism,
					"task %q: committed bytes differ from an earlier commit of range %d", id, req.RangeIdx)
			}
		}
		c.releaseLocked(req.LeaseID)
		c.counts.Duplicates++
		if late {
			c.counts.LateCommits++
		}
		c.tel.OnCommit(true)
		c.logf.Printf("range %d re-committed by %s: byte-identical, deduped", req.RangeIdx, req.Worker)
		return &ResultResponse{Committed: false, Duplicate: true, Done: c.doneN == len(p.ranges)}, nil
	}

	// Journal first, acknowledge after: the fsynced record is the commit.
	if err := c.jnl.Append(journalRecord{
		Kind: jnlResult, RangeIdx: req.RangeIdx, Worker: req.Worker, Results: req.Results,
	}); err != nil {
		return nil, errProto(http.StatusServiceUnavailable, CodeStorage, "%v", err)
	}
	for id, raw := range req.Results {
		c.results[id] = raw
	}
	c.ranges[req.RangeIdx].done = true
	c.doneN++
	c.counts.Committed++
	if late {
		c.counts.LateCommits++
	}
	c.tel.OnCommit(false)
	// Drop every lease on the now-done range; any speculative twin will
	// learn on its own commit (deduped) or next lease request.
	for id, l := range c.leases {
		if l.rangeIdx == req.RangeIdx {
			delete(c.leases, id)
		}
	}
	c.publishLocked()
	c.logf.Printf("range %d committed by %s (%d/%d done)", req.RangeIdx, req.Worker, c.doneN, len(p.ranges))
	if c.doneN == len(p.ranges) {
		c.finishLocked("")
	}
	return &ResultResponse{Committed: true, Done: c.doneN == len(p.ranges)}, nil
}

// Fail records that a worker could not complete a leased range. The lease
// is released immediately so the range re-dispatches without waiting out
// the TTL; a range that exhausts its failure budget fails the sweep.
func (c *Coordinator) Fail(req *FailRequest) (*FailResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contactLocked()
	if err := c.requirePlanLocked(req.PlanHash); err != nil {
		return nil, err
	}
	if req.RangeIdx < 0 || req.RangeIdx >= len(c.plan.ranges) {
		return nil, errProto(http.StatusBadRequest, CodeInvalid,
			"range_idx %d outside plan of %d ranges", req.RangeIdx, len(c.plan.ranges))
	}
	c.releaseLocked(req.LeaseID)
	rs := &c.ranges[req.RangeIdx]
	c.counts.Failures++
	c.tel.OnRangeFailure()
	remaining := c.cfg.FailLimit
	if !rs.done {
		rs.failures++
		remaining = c.cfg.FailLimit - rs.failures
		for id, msg := range req.Errors {
			c.logf.Printf("range %d task %q failed on %s: %s", req.RangeIdx, id, req.Worker, msg)
		}
		if remaining <= 0 {
			c.failLocked(fmt.Sprintf("range %d failed %d times (last on %s); failure budget exhausted",
				req.RangeIdx, rs.failures, req.Worker))
		}
	}
	c.publishLocked()
	if remaining < 0 {
		remaining = 0
	}
	return &FailResponse{Remaining: remaining}, nil
}

// Status snapshots the coordinator's public state.
func (c *Coordinator) Status() *StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	s := &StatusResponse{
		RangesDone: c.doneN, Leased: c.leasedRangesLocked(),
		Failed: c.failed, Counts: c.counts,
	}
	if c.plan != nil {
		s.Tool, s.Fingerprint, s.PlanHash = c.plan.tool, c.plan.fingerprint, c.plan.hash
		s.Tasks, s.Ranges = len(c.plan.ids), len(c.plan.ranges)
		s.Done = c.doneN == len(c.plan.ranges)
	}
	return s
}

// Counts snapshots the robustness counters.
func (c *Coordinator) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// ExpireLeases expires lapsed leases now (they also expire lazily on every
// request); it returns the number of live leases left. A periodic caller
// keeps the lease gauge honest while workers are partitioned and silent.
func (c *Coordinator) ExpireLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return len(c.leases)
}

// Done is closed when the sweep reaches a terminal state: every range
// committed, or the failure budget exhausted (check Err to distinguish).
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err reports the terminal failure, nil while healthy or complete.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == "" {
		return nil
	}
	return fmt.Errorf("dist: sweep failed: %s", c.failed)
}

// MergedCheckpoint assembles the completed sweep as a sched.Checkpoint —
// byte-identical to the checkpoint a single-process sched.RunSweep over the
// same plan would save, because both hold exactly json.Marshal(result) per
// task and the checkpoint encoder is deterministic.
func (c *Coordinator) MergedCheckpoint() (*sched.Checkpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil {
		return nil, fmt.Errorf("dist: no plan registered")
	}
	if c.doneN != len(c.plan.ranges) {
		return nil, fmt.Errorf("dist: sweep incomplete: %d/%d ranges committed", c.doneN, len(c.plan.ranges))
	}
	cp := sched.NewCheckpoint(c.plan.tool, c.plan.fingerprint)
	for _, id := range c.plan.ids {
		raw, ok := c.results[id]
		if !ok {
			return nil, fmt.Errorf("dist: committed ranges cover all tasks but %q has no result", id)
		}
		cp.Done[id] = raw
	}
	return cp, nil
}

// Close releases the journal handle. Appends are fsynced individually, so
// Close is equivalent to kill -9 as far as durability is concerned — which
// is exactly what the chaos harness exploits.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.jnl.Close()
}

// UntilQuiet reports how much longer the coordinator must keep serving
// before its workers have gone quiet: zero once no worker has made a
// protocol request for max(2×WaitHint, LeaseTTL/2). A live worker polls at
// least every wait hint while idle and heartbeats every third of a lease
// TTL while computing, so once the sweep is terminal that much silence
// means every live worker has been told the outcome — Done on its commit
// or lease, or the typed sweep_failed refusal — and stopped asking.
func (c *Coordinator) UntilQuiet() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	quiet := max(2*c.cfg.WaitHint, c.cfg.LeaseTTL/2)
	return max(c.lastContact.Add(quiet).Sub(c.clock.Now()), 0)
}

// contactLocked records a worker's protocol request and expires lapsed
// leases.
func (c *Coordinator) contactLocked() {
	c.lastContact = c.clock.Now()
	c.expireLocked()
}

// expireLocked drops every lapsed lease.
func (c *Coordinator) expireLocked() {
	now := c.clock.Now()
	expired := 0
	for id, l := range c.leases {
		if !l.expires.After(now) {
			delete(c.leases, id)
			expired++
			c.logf.Printf("lease %s expired: range %d held by %s lapsed", id, l.rangeIdx, l.worker)
		}
	}
	if expired > 0 {
		c.counts.Expired += expired
		c.tel.OnExpire(expired)
		c.publishLocked()
	}
}

// releaseLocked drops one lease without counting it as expired.
func (c *Coordinator) releaseLocked(id string) {
	if _, ok := c.leases[id]; ok {
		delete(c.leases, id)
		c.publishLocked()
	}
}

// leasedRangesLocked counts distinct ranges under at least one live lease.
func (c *Coordinator) leasedRangesLocked() int {
	seen := map[int]bool{}
	for _, l := range c.leases {
		seen[l.rangeIdx] = true
	}
	return len(seen)
}

// failLocked marks the sweep terminally failed.
func (c *Coordinator) failLocked(msg string) {
	if c.failed == "" {
		c.failed = msg
		c.logf.Printf("sweep failed: %s", msg)
	}
	c.finishLocked(msg)
}

// finishLocked closes the done channel once.
func (c *Coordinator) finishLocked(string) {
	select {
	case <-c.doneCh:
	default:
		close(c.doneCh)
	}
}

// publishLocked refreshes the gauge-shaped telemetry.
func (c *Coordinator) publishLocked() {
	if c.tel == nil {
		return
	}
	total := 0
	if c.plan != nil {
		total = len(c.plan.ranges)
	}
	c.tel.SetRanges(total, c.doneN)
	c.tel.SetLeasesActive(len(c.leases))
}
