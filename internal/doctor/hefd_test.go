package doctor

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hef/internal/dist"
	"hef/internal/hefd"
	"hef/internal/sched"
	"hef/internal/store"
)

// seedJobLog frames a small, well-formed job write-ahead log: two jobs, one
// of them tombstoned by retention, plus the compaction sequence mark.
func seedJobLog(t *testing.T) []byte {
	t.Helper()
	var buf []byte
	for _, payload := range []string{
		`{"kind":"seq","seq":2}`,
		`{"kind":"spec","id":"j000001-aa","seq":1}`,
		`{"kind":"state","id":"j000001-aa","state":"done","at_ms":1000}`,
		`{"kind":"report","id":"j000001-aa","report":"{}"}`,
		`{"kind":"spec","id":"j000002-bb","seq":2}`,
		`{"kind":"tomb","id":"j000002-bb","at_ms":2000}`,
	} {
		buf = store.AppendRecord(buf, []byte(payload))
	}
	return buf
}

func TestDiagnoseJobLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hefd.JobLogName)
	good := seedJobLog(t)
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := diagnose(t, path, false)
	if rep.Corrupt() || rep.Findings[0].Kind != "job-log" {
		t.Fatalf("healthy log: %+v", rep.Findings)
	}
	if d := rep.Findings[0].Detail; !strings.Contains(d, "6 record(s): 2 job(s), 1 tombstone(s)") {
		t.Fatalf("summary detail = %q", d)
	}

	// A torn tail (the kill -9 artifact) is detected, then repaired by the
	// same quarantine+truncate salvage the daemon applies at open.
	if err := os.WriteFile(path, append(append([]byte{}, good...), good[:11]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, path, false); !rep.Corrupt() {
		t.Fatal("torn log not detected")
	}
	rep = diagnose(t, path, true)
	if rep.Corrupt() || rep.Findings[0].Status != StatusRepaired {
		t.Fatalf("repair: %+v", rep.Findings)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("repair did not truncate to the valid prefix: %d bytes, want %d", len(got), len(good))
	}
	if rep := diagnose(t, path, false); rep.Corrupt() {
		t.Fatal("log corrupt again after repair")
	}

	// A record of an unknown kind is corruption, not a record to skip: the
	// log is the daemon's source of truth.
	alien := store.AppendRecord(append([]byte{}, good...), []byte(`{"kind":"alien"}`))
	if err := os.WriteFile(path, alien, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, path, false); !rep.Corrupt() {
		t.Fatal("unknown record kind accepted")
	}

	// An empty log (first boot) is healthy.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, path, false); rep.Corrupt() || rep.Findings[0].Detail != "empty" {
		t.Fatalf("empty log: %+v", rep.Findings)
	}
}

// A job log under any other file name still classifies by content.
func TestDiagnoseJobLogByContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archived.bin")
	if err := os.WriteFile(path, seedJobLog(t), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := diagnose(t, path, false)
	if rep.Corrupt() || rep.Findings[0].Kind != "job-log" {
		t.Fatalf("renamed log: %+v", rep.Findings)
	}
}

func TestDiagnoseAdmissionState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hefd.AdmissionStateName)
	good, err := hefd.EncodeAdmissionState(hefd.AdmissionState{
		Buckets:  map[string]hefd.BucketState{"alice": {Tokens: 1, LastMS: 5}},
		Breakers: map[string]sched.BreakerState{"mallory": {Open: true, OpenedAtMS: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := diagnose(t, path, false)
	if rep.Corrupt() || rep.Findings[0].Kind != "admission-state" {
		t.Fatalf("healthy snapshot: %+v", rep.Findings)
	}
	if d := rep.Findings[0].Detail; !strings.Contains(d, "1 bucket(s), 1 breaker(s)") {
		t.Fatalf("summary detail = %q", d)
	}

	// A torn snapshot has no salvageable prefix: repair quarantines the
	// whole file and resets it to empty — the zero admission state.
	if err := os.WriteFile(path, good[:len(good)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, path, false); !rep.Corrupt() {
		t.Fatal("torn snapshot not detected")
	}
	rep = diagnose(t, path, true)
	if rep.Corrupt() || rep.Findings[0].Status != StatusRepaired {
		t.Fatalf("repair: %+v", rep.Findings)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("repair left %d bytes, want the empty zero state", len(got))
	}
	rep = diagnose(t, path, false)
	if rep.Corrupt() || !strings.Contains(rep.Findings[0].Detail, "zero admission state") {
		t.Fatalf("post-repair snapshot: %+v", rep.Findings)
	}
}

// An admission snapshot under another name still classifies by content.
func TestDiagnoseAdmissionStateByContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.saved")
	good, err := hefd.EncodeAdmissionState(hefd.AdmissionState{
		Buckets: map[string]hefd.BucketState{"a": {Tokens: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := diagnose(t, path, false)
	if rep.Corrupt() || rep.Findings[0].Kind != "admission-state" {
		t.Fatalf("renamed snapshot: %+v", rep.Findings)
	}
}

// frozenLogFS lets a daemon open and salvage jobs.log but fails every
// append to it afterwards, so the file keeps exactly the bytes the open's
// salvage left behind while the recovered job runs.
type frozenLogFS struct{ store.FS }

type refusingFile struct{ store.File }

func (refusingFile) Write([]byte) (int, error) { return 0, errors.New("frozen for the test") }

func (f frozenLogFS) OpenAppend(path string) (store.File, error) {
	inner, err := f.FS.OpenAppend(path)
	if err != nil || filepath.Base(path) != hefd.JobLogName {
		return inner, err
	}
	return refusingFile{inner}, nil
}

// A record of an unknown kind ends the valid prefix for the daemon and for
// hefdoctor alike: a doctor-repaired jobs.log is byte-identical to one the
// daemon salvaged at open, and both sidecars hold the same suffix.
func TestJobLogRepairMatchesDaemonSalvage(t *testing.T) {
	var log []byte
	for _, payload := range []string{
		`{"kind":"spec","id":"j000000-aa","spec":{"ops":["nosuchop"]}}`,
		`{"kind":"bogus"}`,
		`{"kind":"state","id":"j000000-aa","state":"done","at_ms":7}`,
	} {
		log = store.AppendRecord(log, []byte(payload))
	}
	daemonDir, doctorDir := t.TempDir(), t.TempDir()
	for _, dir := range []string{daemonDir, doctorDir} {
		if err := os.WriteFile(filepath.Join(dir, hefd.JobLogName), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m, err := hefd.New(hefd.Config{DataDir: daemonDir, FS: frozenLogFS{store.OS}, LogW: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, filepath.Join(doctorDir, hefd.JobLogName), true); rep.Findings[0].Status != StatusRepaired {
		t.Fatalf("doctor repair: %+v", rep.Findings)
	}

	read := func(dir, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	daemonLog, doctorLog := read(daemonDir, hefd.JobLogName), read(doctorDir, hefd.JobLogName)
	if !bytes.Equal(daemonLog, doctorLog) {
		t.Fatalf("daemon kept %d bytes, doctor kept %d", len(daemonLog), len(doctorLog))
	}
	if !bytes.HasPrefix(log, daemonLog) || len(daemonLog) == len(log) {
		t.Fatalf("salvage kept %d of %d bytes, want the spec record only", len(daemonLog), len(log))
	}
	// Same header fields and raw suffix; only the reason names the tool.
	daemonSide := read(daemonDir, hefd.JobLogName+".quarantine")
	doctorSide := read(doctorDir, hefd.JobLogName+".quarantine")
	if want := bytes.Replace(daemonSide, []byte(`"reason":"`), []byte(`"reason":"hefdoctor: `), 1); !bytes.Equal(doctorSide, want) {
		t.Fatalf("sidecars differ:\ndaemon %q\ndoctor %q", daemonSide, doctorSide)
	}
}

// sweepJournal runs a coordinator in dir through one plan, one grant and
// one commit, and returns the journal's bytes.
func sweepJournal(t *testing.T, dir string) []byte {
	t.Helper()
	c, err := dist.NewCoordinator(dist.Config{DataDir: dir, RangeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := &dist.PlanRequest{Version: dist.ProtocolVersion, Tool: "testsweep",
		Fingerprint: "seed=1", TaskIDs: []string{"t0", "t1", "t2"}, Worker: "w1"}
	pr, err := c.RegisterPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease(&dist.LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]json.RawMessage{"t0": json.RawMessage(`1`), "t1": json.RawMessage(`2`)}
	if _, err := c.Commit(&dist.ResultRequest{Worker: "w1", PlanHash: pr.PlanHash,
		LeaseID: l.LeaseID, RangeIdx: l.RangeIdx, Range: l.Range, Results: results}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, dist.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A healthy sweep.log is ok; a torn one is corrupt, then repaired exactly
// as the coordinator salvages it at open, so the coordinator reopens the
// repaired journal without salvaging anything.
func TestDiagnoseSweepJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, dist.JournalName)
	good := sweepJournal(t, dir)
	rep := diagnose(t, path, false)
	if rep.Corrupt() || rep.Findings[0].Kind != "sweep-journal" {
		t.Fatalf("healthy journal: %+v", rep.Findings)
	}
	if d := rep.Findings[0].Detail; !strings.Contains(d, "1 plan(s), 1 grant(s), 1 result(s)") {
		t.Fatalf("summary detail = %q", d)
	}

	if err := os.WriteFile(path, append(append([]byte{}, good...), good[:11]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, path, false); !rep.Corrupt() || rep.Findings[0].Kind != "sweep-journal" {
		t.Fatalf("torn journal: %+v", rep.Findings)
	}
	if rep := diagnose(t, path, true); rep.Findings[0].Status != StatusRepaired {
		t.Fatalf("repair: %+v", rep.Findings)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("repair kept %d bytes, want the %d-byte valid prefix (%v)", len(got), len(good), err)
	}

	var logw bytes.Buffer
	c, err := dist.NewCoordinator(dist.Config{DataDir: dir, LogW: &logw})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if strings.Contains(logw.String(), "salvage") {
		t.Fatalf("coordinator salvaged a repaired journal:\n%s", logw.String())
	}
	if st := c.Status(); st.RangesDone != 1 || st.Ranges != 2 {
		t.Fatalf("reopened coordinator status %+v", st)
	}

	// Under another name the journal still classifies by content.
	renamed := filepath.Join(t.TempDir(), "archived-sweep.bin")
	if err := os.WriteFile(renamed, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep := diagnose(t, renamed, false); rep.Corrupt() || rep.Findings[0].Kind != "sweep-journal" {
		t.Fatalf("renamed journal: %+v", rep.Findings)
	}
}
