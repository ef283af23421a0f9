package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hef/internal/leakcheck"
	"hef/internal/sched"
)

// testPlan builds a PlanRequest over n synthetic tasks.
func testPlan(n int) *PlanRequest {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%03d", i)
	}
	return &PlanRequest{
		Version: ProtocolVersion, Tool: "testsweep", Fingerprint: "seed=1",
		TaskIDs: ids, Worker: "w1",
	}
}

// resultsFor fabricates the deterministic result bytes for a range: what a
// worker's json.Marshal of the task value would produce.
func resultsFor(ids []string, r sched.Range) map[string]json.RawMessage {
	out := map[string]json.RawMessage{}
	for _, id := range ids[r.Start:r.End] {
		out[id] = json.RawMessage(fmt.Sprintf(`{"id":%q,"v":1}`, id))
	}
	return out
}

func newTestCoordinator(t *testing.T, dir string, clock sched.Clock) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		DataDir: dir, RangeSize: 4,
		LeaseTTL: 10 * time.Second, StragglerAfter: 30 * time.Second,
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var pe *ProtoError
	if !errors.As(err, &pe) || pe.Code != code {
		t.Fatalf("error = %v, want code %s", err, code)
	}
}

func TestCoordinatorLeaseExpiryAndReassignment(t *testing.T) {
	leakcheck.Check(t)
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	c := newTestCoordinator(t, t.TempDir(), clock)

	plan := testPlan(8) // 2 ranges of 4
	pr, err := c.RegisterPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Ranges != 2 || pr.RangeSize != 4 {
		t.Fatalf("plan response %+v", pr)
	}

	l1, err := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if err != nil || l1.LeaseID == "" || l1.RangeIdx != 0 {
		t.Fatalf("first lease %+v, %v", l1, err)
	}
	l2, err := c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	if err != nil || l2.RangeIdx != 1 {
		t.Fatalf("second lease %+v, %v", l2, err)
	}
	// Both ranges leased and healthy: a third worker gets a wait hint.
	l3, err := c.Lease(&LeaseRequest{Worker: "w3", PlanHash: pr.PlanHash})
	if err != nil || l3.LeaseID != "" || l3.WaitMS <= 0 {
		t.Fatalf("third lease %+v, %v", l3, err)
	}

	// w1 heartbeats; w2 goes silent. After the TTL, w2's lease lapses and
	// its range is reassigned, while w1's renewed lease holds.
	clock.Advance(6 * time.Second)
	if _, err := c.Heartbeat(&HeartbeatRequest{Worker: "w1", LeaseID: l1.LeaseID}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second) // w2 now 12s silent > 10s TTL
	l4, err := c.Lease(&LeaseRequest{Worker: "w3", PlanHash: pr.PlanHash})
	if err != nil || l4.RangeIdx != 1 || l4.Speculative {
		t.Fatalf("reassigned lease %+v, %v", l4, err)
	}
	if got := c.Counts().Expired; got != 1 {
		t.Fatalf("expired = %d, want 1", got)
	}
	// The lapsed worker's heartbeat is now a typed refusal.
	_, err = c.Heartbeat(&HeartbeatRequest{Worker: "w2", LeaseID: l2.LeaseID})
	wantCode(t, err, CodeLeaseUnknown)

	// The lapsed worker's commit is still welcome: lease-independent,
	// counted as a late commit.
	if _, err := c.Commit(&ResultRequest{
		Worker: "w2", PlanHash: pr.PlanHash, LeaseID: l2.LeaseID,
		RangeIdx: 1, Range: l2.Range, Results: resultsFor(plan.TaskIDs, l2.Range),
	}); err != nil {
		t.Fatal(err)
	}
	if counts := c.Counts(); counts.LateCommits != 1 || counts.Committed != 1 {
		t.Fatalf("counts after late commit: %+v", counts)
	}

	// w3's duplicate of the same range dedupes byte-identically.
	rr, err := c.Commit(&ResultRequest{
		Worker: "w3", PlanHash: pr.PlanHash, LeaseID: l4.LeaseID,
		RangeIdx: 1, Range: l4.Range, Results: resultsFor(plan.TaskIDs, l4.Range),
	})
	if err != nil || !rr.Duplicate || rr.Committed {
		t.Fatalf("duplicate commit %+v, %v", rr, err)
	}

	// Complete the sweep.
	if _, err := c.Commit(&ResultRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l1.LeaseID,
		RangeIdx: 0, Range: l1.Range, Results: resultsFor(plan.TaskIDs, l1.Range),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("done channel not closed after final commit")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	lr, err := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if err != nil || !lr.Done {
		t.Fatalf("lease after completion %+v, %v", lr, err)
	}
}

func TestCoordinatorSpeculativeRedispatch(t *testing.T) {
	leakcheck.Check(t)
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	c := newTestCoordinator(t, t.TempDir(), clock)
	plan := testPlan(4) // one range
	pr, _ := c.RegisterPlan(plan)

	l1, err := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if err != nil || l1.LeaseID == "" {
		t.Fatal(err)
	}
	// w1 keeps heartbeating but never finishes. Before the straggler
	// deadline a second worker only gets a wait hint; after it, a
	// speculative lease on the same range — but never to w1 itself.
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		if _, err := c.Heartbeat(&HeartbeatRequest{Worker: "w1", LeaseID: l1.LeaseID}); err != nil {
			t.Fatal(err)
		}
		if i == 1 { // 12s < 30s straggler deadline
			lr, err := c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
			if err != nil || lr.LeaseID != "" {
				t.Fatalf("premature speculative lease %+v, %v", lr, err)
			}
		}
	}
	// 30s elapsed: w1 asking again still gets a wait (it already holds the
	// range); w2 gets the speculative grant.
	self, err := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if err != nil || self.LeaseID != "" {
		t.Fatalf("self-speculation %+v, %v", self, err)
	}
	spec, err := c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	if err != nil || !spec.Speculative || spec.RangeIdx != 0 {
		t.Fatalf("speculative lease %+v, %v", spec, err)
	}
	// MaxLeasesPerRange (2) caps further speculation.
	lr, err := c.Lease(&LeaseRequest{Worker: "w3", PlanHash: pr.PlanHash})
	if err != nil || lr.LeaseID != "" {
		t.Fatalf("over-speculation %+v, %v", lr, err)
	}
	if got := c.Counts().Speculative; got != 1 {
		t.Fatalf("speculative = %d, want 1", got)
	}

	// The speculative twin commits first; w1's later duplicate dedupes.
	r := spec.Range
	if _, err := c.Commit(&ResultRequest{
		Worker: "w2", PlanHash: pr.PlanHash, LeaseID: spec.LeaseID,
		RangeIdx: 0, Range: r, Results: resultsFor(plan.TaskIDs, r),
	}); err != nil {
		t.Fatal(err)
	}
	rr, err := c.Commit(&ResultRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l1.LeaseID,
		RangeIdx: 0, Range: r, Results: resultsFor(plan.TaskIDs, r),
	})
	if err != nil || !rr.Duplicate {
		t.Fatalf("first worker's commit %+v, %v", rr, err)
	}
}

func TestCoordinatorJournalReplayAfterKill(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	plan := testPlan(12) // 3 ranges of 4

	c1, err := NewCoordinator(Config{DataDir: dir, RangeSize: 4, LeaseTTL: 10 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c1.RegisterPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := c1.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if _, err := c1.Commit(&ResultRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l0.LeaseID,
		RangeIdx: 0, Range: l0.Range, Results: resultsFor(plan.TaskIDs, l0.Range),
	}); err != nil {
		t.Fatal(err)
	}
	l1, _ := c1.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	if l1.RangeIdx != 1 {
		t.Fatalf("lease went to range %d", l1.RangeIdx)
	}
	// kill -9: no graceful shutdown beyond dropping the handle (appends
	// are fsynced individually, so Close adds no durability).
	_ = c1.Close()

	// Restart under a different -range-size: the journaled sharding wins.
	c2, err := NewCoordinator(Config{DataDir: dir, RangeSize: 99, LeaseTTL: 10 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Status()
	if st.PlanHash != pr.PlanHash || st.Ranges != 3 || st.RangesDone != 1 {
		t.Fatalf("restarted status %+v", st)
	}
	// w2's pre-crash lease was re-armed: its heartbeat still lands, and
	// range 1 is not handed to anyone else while it lives.
	if _, err := c2.Heartbeat(&HeartbeatRequest{Worker: "w2", LeaseID: l1.LeaseID}); err != nil {
		t.Fatalf("re-armed lease heartbeat: %v", err)
	}
	lr, err := c2.Lease(&LeaseRequest{Worker: "w3", PlanHash: pr.PlanHash})
	if err != nil || lr.RangeIdx != 2 {
		t.Fatalf("post-restart lease %+v, %v", lr, err)
	}
	// Registering the same plan again is idempotent; a different plan is
	// refused.
	if _, err := c2.RegisterPlan(plan); err != nil {
		t.Fatal(err)
	}
	other := testPlan(12)
	other.Fingerprint = "seed=2"
	_, err = c2.RegisterPlan(other)
	wantCode(t, err, CodePlanMismatch)

	// Finish ranges 1 and 2; a second restart then reports done and merges.
	for _, l := range []*LeaseResponse{l1, lr} {
		if _, err := c2.Commit(&ResultRequest{
			Worker: "wX", PlanHash: pr.PlanHash, LeaseID: l.LeaseID,
			RangeIdx: l.RangeIdx, Range: l.Range, Results: resultsFor(plan.TaskIDs, l.Range),
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = c2.Close()
	c3, err := NewCoordinator(Config{DataDir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	select {
	case <-c3.Done():
	default:
		t.Fatal("restarted coordinator does not know the sweep is done")
	}
	cp, err := c3.MergedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Done) != 12 {
		t.Fatalf("merged checkpoint holds %d tasks", len(cp.Done))
	}
	// The merged checkpoint is byte-identical to a serially-built one.
	serial := sched.NewCheckpoint("testsweep", "seed=1")
	for id, raw := range resultsFor(plan.TaskIDs, sched.Range{Start: 0, End: 12}) {
		serial.Done[id] = raw
	}
	a, _ := cp.Marshal()
	b, _ := serial.Marshal()
	if string(a) != string(b) {
		t.Fatalf("merged checkpoint differs from serial:\n%s\n----\n%s", a, b)
	}
}

func TestCoordinatorDeterminismViolationFailsSweep(t *testing.T) {
	leakcheck.Check(t)
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	c := newTestCoordinator(t, t.TempDir(), clock)
	plan := testPlan(4)
	pr, _ := c.RegisterPlan(plan)
	l, _ := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	good := resultsFor(plan.TaskIDs, l.Range)
	if _, err := c.Commit(&ResultRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l.LeaseID,
		RangeIdx: 0, Range: l.Range, Results: good,
	}); err != nil {
		t.Fatal(err)
	}
	bad := resultsFor(plan.TaskIDs, l.Range)
	bad["t001"] = json.RawMessage(`{"id":"t001","v":2}`)
	_, err := c.Commit(&ResultRequest{
		Worker: "w2", PlanHash: pr.PlanHash,
		RangeIdx: 0, Range: l.Range, Results: bad,
	})
	wantCode(t, err, CodeDeterminism)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("sweep not failed: %v", err)
	}
	_, err = c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	wantCode(t, err, CodeSweepFailed)
}

func TestCoordinatorFailureBudget(t *testing.T) {
	leakcheck.Check(t)
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	c, err := NewCoordinator(Config{
		DataDir: t.TempDir(), RangeSize: 4, FailLimit: 2, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := testPlan(4)
	pr, _ := c.RegisterPlan(plan)

	l, _ := c.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	fr, err := c.Fail(&FailRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l.LeaseID, RangeIdx: 0,
		Errors: map[string]string{"t000": "boom"},
	})
	if err != nil || fr.Remaining != 1 {
		t.Fatalf("first failure %+v, %v", fr, err)
	}
	// The failure released the lease immediately — no TTL wait before
	// the range re-dispatches.
	l2, err := c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	if err != nil || l2.RangeIdx != 0 {
		t.Fatalf("re-dispatch after failure %+v, %v", l2, err)
	}
	if _, err := c.Fail(&FailRequest{
		Worker: "w2", PlanHash: pr.PlanHash, LeaseID: l2.LeaseID, RangeIdx: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err == nil {
		t.Fatal("failure budget exhausted but sweep not failed")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("done channel not closed on terminal failure")
	}
}

func TestCoordinatorJournalTornTailSalvage(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	plan := testPlan(8)
	c1, err := NewCoordinator(Config{DataDir: dir, RangeSize: 4, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := c1.RegisterPlan(plan)
	l, _ := c1.Lease(&LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if _, err := c1.Commit(&ResultRequest{
		Worker: "w1", PlanHash: pr.PlanHash, LeaseID: l.LeaseID,
		RangeIdx: 0, Range: l.Range, Results: resultsFor(plan.TaskIDs, l.Range),
	}); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()

	// Tear the journal tail mid-record, the kill -9 artifact.
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0x30, 0x00, 0x00, 0x00, 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCoordinator(Config{DataDir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Status()
	if st.RangesDone != 1 || st.Ranges != 2 {
		t.Fatalf("salvaged status %+v", st)
	}
	if _, err := os.ReadFile(path + ".quarantine"); err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
	// The salvaged journal keeps accepting appends.
	l2, err := c2.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash})
	if err != nil || l2.RangeIdx != 1 {
		t.Fatalf("lease after salvage %+v, %v", l2, err)
	}
}

// TestCoordinatorDoneHandshake: the commit that completes the sweep, and a
// deduped re-commit after it, answer Done; UntilQuiet counts down from the
// last protocol request, so a status poll does not hold the coordinator
// open but a worker's late poll does.
func TestCoordinatorDoneHandshake(t *testing.T) {
	leakcheck.Check(t)
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	c := newTestCoordinator(t, t.TempDir(), clock)
	quiet := 5 * time.Second // max(2×wait hint, TTL/2) for the 10s test TTL

	plan := testPlan(8)
	pr, err := c.RegisterPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(idx int) *ResultResponse {
		t.Helper()
		r := sched.Range{Start: 4 * idx, End: 4*idx + 4}
		rr, err := c.Commit(&ResultRequest{
			Worker: "w1", PlanHash: pr.PlanHash, RangeIdx: idx, Range: r,
			Results: resultsFor(plan.TaskIDs, r),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	if rr := commit(0); rr.Done {
		t.Fatalf("first of two ranges answered %+v, want not done", rr)
	}
	if rr := commit(1); !rr.Committed || !rr.Done {
		t.Fatalf("final commit answered %+v, want committed and done", rr)
	}
	if rr := commit(1); !rr.Duplicate || !rr.Done {
		t.Fatalf("re-commit after completion answered %+v, want duplicate and done", rr)
	}

	if d := c.UntilQuiet(); d != quiet {
		t.Fatalf("UntilQuiet right after the last request = %v, want %v", d, quiet)
	}
	clock.Advance(quiet - time.Second)
	c.Status()
	if d := c.UntilQuiet(); d != time.Second {
		t.Fatalf("UntilQuiet after a status poll = %v, want 1s", d)
	}
	if lr, err := c.Lease(&LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash}); err != nil || !lr.Done {
		t.Fatalf("late lease %+v, %v; want done", lr, err)
	}
	if d := c.UntilQuiet(); d != quiet {
		t.Fatalf("UntilQuiet after a worker's poll = %v, want %v", d, quiet)
	}
	clock.Advance(quiet)
	if d := c.UntilQuiet(); d != 0 {
		t.Fatalf("UntilQuiet after %v of silence = %v, want 0", quiet, d)
	}
}
