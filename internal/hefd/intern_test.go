package hefd

import (
	"errors"
	"io"
	"testing"
	"time"
	"unsafe"

	"hef/internal/sched"
)

// reportBackings returns the number of done jobs, the number of distinct
// backing arrays their reports occupy, and the size of the intern table.
func reportBackings(m *Manager) (done, backings, interned int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[*byte]bool{}
	for _, j := range m.jobs {
		if j.state == StateDone && j.report != nil {
			done++
			seen[unsafe.StringData(j.report.data)] = true
		}
	}
	return done, len(seen), len(m.reports)
}

// TestDoneReportsShareOneCopy: a report is a pure function of its spec, so
// 200 done jobs of one spec hold a single copy of it — when they finish, and
// again after a restart replays them from the job log. Retention still
// drops a tombstoned job (live and on replay), the last holder of a report
// frees it, and Report still hands out private bytes.
func TestDoneReportsShareOneCopy(t *testing.T) {
	const jobs = 200
	cfg := Config{
		DataDir: t.TempDir(), LogW: io.Discard, runOp: stubRun, QueueSize: jobs + 1,
		Clock: sched.NewFakeClock(time.Unix(1000, 0)), Retention: RetentionConfig{Count: jobs},
	}
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Ops: []string{"murmur"}}
	var ids []string
	for i := 0; i < jobs; i++ {
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitState(t, m1, id, StateDone)
	}
	if done, backings, interned := reportBackings(m1); done != jobs || backings != 1 || interned != 1 {
		t.Fatalf("after finishing: %d done jobs in %d report copies (%d interned), want %d in 1", done, backings, interned, jobs)
	}
	want, err := m1.Report(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	want[0] ^= 0xff // a private copy: scribbling on it must not reach the job
	again, _ := m1.Report(ids[0])
	if again[0] == want[0] {
		t.Fatal("Report returned the interned bytes, not a copy")
	}
	want[0] ^= 0xff
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, backings, interned := reportBackings(m2); done != jobs || backings != 1 || interned != 1 {
		t.Fatalf("after recovery: %d done jobs in %d report copies (%d interned), want %d in 1", done, backings, interned, jobs)
	}
	if got, err := m2.Report(ids[jobs-1]); err != nil || string(got) != string(want) {
		t.Fatalf("recovered report: err %v, bytes equal %v", err, string(got) == string(want))
	}

	// One more job puts the tenant over its retention count: the oldest
	// job is tombstoned and forgotten, the rest keep sharing one copy.
	v, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m2, v.ID, StateDone)
	if expired := m2.Sweep(); len(expired) != 1 || expired[0] != ids[0] {
		t.Fatalf("sweep expired %v, want [%s]", expired, ids[0])
	}
	if _, err := m2.Report(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("tombstoned job still served: %v", err)
	}
	if done, backings, interned := reportBackings(m2); done != jobs || backings != 1 || interned != 1 {
		t.Fatalf("after retention: %d done jobs in %d report copies (%d interned), want %d in 1", done, backings, interned, jobs)
	}
	// The last holder of a report frees it.
	m2.mu.Lock()
	refs := m2.reports[string(want)].refs
	lone := &job{}
	m2.attachReport(lone, "a report no other job has")
	withLone := len(m2.reports)
	m2.dropReport(lone)
	withoutLone := len(m2.reports)
	m2.mu.Unlock()
	if refs != jobs || withLone != 2 || withoutLone != 1 {
		t.Fatalf("holders %d (want %d); table %d then %d entries (want 2 then 1)", refs, jobs, withLone, withoutLone)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Replaying the tombstone forgets the expired job and its share too.
	m3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if done, backings, interned := reportBackings(m3); done != jobs || backings != 1 || interned != 1 {
		t.Fatalf("after replaying the tombstone: %d done jobs in %d report copies (%d interned), want %d in 1", done, backings, interned, jobs)
	}
	m3.mu.Lock()
	refs = m3.reports[string(want)].refs
	m3.mu.Unlock()
	if refs != jobs {
		t.Fatalf("after replaying the tombstone the report counts %d holders, want %d", refs, jobs)
	}
}
