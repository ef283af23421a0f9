package hefd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
)

// A dry token bucket survives the restart: the tenant is still shed with
// 429 immediately after the new instance comes up, instead of getting a
// fresh burst by crashing the daemon.
func TestAdmissionRecoveryKeepsBucketDry(t *testing.T) {
	dir := t.TempDir()
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	cfg := Config{DataDir: dir, LogW: io.Discard, runOp: stubRun, Clock: clock,
		Quota: QuotaConfig{Rate: 0.001, Burst: 1}}

	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("alice's burst submit: %v", err)
	}
	var shed *ShedError
	if _, err := m1.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedQuota {
		t.Fatalf("bucket not dry before restart: %v", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedQuota {
		t.Fatalf("restart refunded the dry bucket: %v", err)
	}
	// A tenant that never spent is unaffected.
	if _, err := m2.Submit(JobSpec{Tenant: "bob", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("bob shed after restart: %v", err)
	}
}

// An open breaker survives the restart with its original cooldown anchor:
// the tenant stays shed with 503 and cannot close the circuit early by
// crashing the daemon.
func TestAdmissionRecoveryKeepsBreakerOpen(t *testing.T) {
	dir := t.TempDir()
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	failing := func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
		return nil, errors.New("poisoned spec")
	}
	cfg := Config{DataDir: dir, LogW: io.Discard, Clock: clock,
		Breaker: sched.BreakerConfig{Threshold: 1, Cooldown: time.Hour}}

	cfg.runOp = failing
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, v.ID, StateFailed)
	var shed *ShedError
	if _, err := m1.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedBreakerOpen {
		t.Fatalf("breaker not open before restart: %v", err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart halfway through the cooldown: the remaining wait reflects the
	// ORIGINAL opening time, not the restart.
	clock.Advance(30 * time.Minute)
	cfg.runOp = stubRun
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}}); !errors.As(err, &shed) || shed.Code != ShedBreakerOpen {
		t.Fatalf("restart closed the open breaker: %v", err)
	}
	if shed.RetryAfter > 30*time.Minute {
		t.Fatalf("cooldown restarted from scratch: Retry-After %v, want <= 30m", shed.RetryAfter)
	}
	// The rest of the cooldown elapses; the probe is admitted and closes
	// the circuit.
	clock.Advance(31 * time.Minute)
	probe, err := m2.Submit(JobSpec{Tenant: "mallory", Ops: []string{"murmur"}})
	if err != nil {
		t.Fatalf("probe refused after full cooldown: %v", err)
	}
	waitState(t, m2, probe.ID, StateDone)
}

// The snapshot format round-trips byte-identically: save, load, save must
// reproduce the same bytes (JSON maps marshal with sorted keys).
func TestAdmissionStateRoundTripByteIdentical(t *testing.T) {
	st := AdmissionState{
		Buckets: map[string]BucketState{
			"alice": {Tokens: 0.25, LastMS: 123456},
			"bob":   {Tokens: 3, LastMS: 99},
		},
		Breakers: map[string]sched.BreakerState{
			"mallory": {Failures: 4, Open: true, OpenedAtMS: 5000},
			"trent":   {Failures: 1},
		},
	}
	first, err := EncodeAdmissionState(st)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseAdmissionState(first)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	second, err := EncodeAdmissionState(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n%q\n%q", first, second)
	}
	if parsed.Breakers["mallory"].OpenedAtMS != 5000 || parsed.Buckets["alice"].Tokens != 0.25 {
		t.Fatalf("round trip lost fields: %+v", parsed)
	}
}

func TestParseAdmissionStateRejectsDamage(t *testing.T) {
	good, err := EncodeAdmissionState(AdmissionState{Buckets: map[string]BucketState{"a": {Tokens: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"torn tail":      good[:len(good)-3],
		"flipped byte":   append(append([]byte{}, good[:8]...), append([]byte{good[8] ^ 0xff}, good[9:]...)...),
		"trailing junk":  append(append([]byte{}, good...), 'x'),
		"double record":  append(append([]byte{}, good...), good...),
		"foreign record": store.AppendRecord(nil, []byte(`{"schema":"something.else"}`)),
	} {
		if _, err := ParseAdmissionState(data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// Empty is the zero state, not damage.
	if st, err := ParseAdmissionState(nil); err != nil || len(st.Buckets) != 0 {
		t.Fatalf("empty state: %+v %v", st, err)
	}
}

// A torn snapshot on disk falls back to the zero state with a single
// warning; the daemon still serves.
func TestAdmissionRecoveryTornSnapshotFallsBackToZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, AdmissionStateName)
	good, err := EncodeAdmissionState(AdmissionState{Buckets: map[string]BucketState{"alice": {Tokens: 0, LastMS: 1000_000}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	clock := sched.NewFakeClock(time.Unix(1000, 0))
	m, err := New(Config{DataDir: dir, LogW: &log, runOp: stubRun, Clock: clock,
		Quota: QuotaConfig{Rate: 1, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if n := strings.Count(log.String(), AdmissionStateName+" unusable"); n != 1 {
		t.Fatalf("want exactly one torn-snapshot warning, got %d:\n%s", n, log.String())
	}
	// Zero state: alice's recorded dry bucket was unreadable, so she gets
	// the configured burst — availability over a corrupt protection file.
	if _, err := m.Submit(JobSpec{Tenant: "alice", Ops: []string{"murmur"}}); err != nil {
		t.Fatalf("submit under zero fallback state: %v", err)
	}
}
