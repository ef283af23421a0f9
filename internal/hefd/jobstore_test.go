package hefd

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hef/internal/store"
)

func mustAppend(t *testing.T, l *store.Log, rec walRecord) {
	t.Helper()
	if err := l.Append(rec); err != nil {
		t.Fatalf("append %+v: %v", rec, err)
	}
}

// openJobLog opens dir's job log the way the daemon does, through
// decodeJobRecord, and returns the records it replayed.
func openJobLog(t *testing.T, fsys store.FS, dir string) (*store.Log, []walRecord) {
	t.Helper()
	var recs []walRecord
	l, err := store.OpenLog(fsys, filepath.Join(dir, JobLogName), func(payload []byte) error {
		rec, err := decodeJobRecord(payload)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	if err != nil {
		t.Fatalf("open job log: %v", err)
	}
	return l, recs
}

func replayAll(t *testing.T, dir string) (*store.Log, []walRecord) {
	t.Helper()
	return openJobLog(t, store.OS, dir)
}

func TestJobLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := replayAll(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	spec := &JobSpec{Tenant: "t1", CPU: "silver", Ops: []string{"murmur"}}
	mustAppend(t, l, walRecord{Kind: walSpec, ID: "j0", Seq: 0, Spec: spec})
	mustAppend(t, l, walRecord{Kind: walState, ID: "j0", State: StateRunning})
	mustAppend(t, l, walRecord{Kind: walReport, ID: "j0", Report: `{"ok":true}`})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, recs := replayAll(t, dir)
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Kind != walSpec || recs[0].Spec == nil || recs[0].Spec.Tenant != "t1" {
		t.Fatalf("spec record mangled: %+v", recs[0])
	}
	if recs[1].State != StateRunning {
		t.Fatalf("state record mangled: %+v", recs[1])
	}
	if recs[2].Report != `{"ok":true}` {
		t.Fatalf("report bytes mangled: %s", recs[2].Report)
	}
	if l2.Salvaged() != 0 {
		t.Fatalf("clean log reported %d salvaged bytes", l2.Salvaged())
	}
}

// A torn tail — the kill -9 artifact — must cost exactly the torn record:
// the valid prefix replays, the bad suffix is quarantined, and the log
// accepts appends again.
func TestJobLogTornTailSalvaged(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir)
	mustAppend(t, l, walRecord{Kind: walSpec, ID: "j0", Seq: 0, Spec: &JobSpec{Ops: []string{"murmur"}}})
	mustAppend(t, l, walRecord{Kind: walState, ID: "j0", State: StateRunning})
	l.Close()

	path := filepath.Join(dir, JobLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: keep the first record plus half the second.
	torn := append([]byte(nil), data...)
	torn = torn[:len(torn)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := replayAll(t, dir)
	if len(recs) != 1 || recs[0].Kind != walSpec {
		t.Fatalf("salvage replayed %d records (%+v), want the 1 intact spec", len(recs), recs)
	}
	if l2.Salvaged() == 0 {
		t.Fatal("salvage not reported")
	}
	side, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !strings.Contains(string(side), `"reason"`) {
		t.Fatalf("quarantine sidecar has no reason header: %q", side)
	}
	// The salvaged log keeps working.
	mustAppend(t, l2, walRecord{Kind: walState, ID: "j0", State: StateParked})
	l2.Close()
	_, recs = replayAll(t, dir)
	if len(recs) != 2 || recs[1].State != StateParked {
		t.Fatalf("post-salvage append lost: %+v", recs)
	}
}

// Valid CRC framing around a payload the daemon cannot interpret — not
// JSON, or JSON of an unknown kind — is foreign data, not a torn tail: it
// must still salvage, ending the valid prefix, not crash or silently
// replay garbage.
func TestJobLogForeignRecordQuarantined(t *testing.T) {
	spec := store.AppendRecord(nil, []byte(`{"kind":"spec","id":"j0","spec":{"ops":["murmur"]}}`))
	for _, foreign := range []string{"not json", `{"kind":"bogus"}`} {
		dir := t.TempDir()
		path := filepath.Join(dir, JobLogName)
		data := store.AppendRecord(append([]byte(nil), spec...), []byte(foreign))
		data = store.AppendRecord(data, []byte(`{"kind":"state","id":"j0","state":"done"}`))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := replayAll(t, dir)
		l.Close()
		if len(recs) != 1 || recs[0].Kind != walSpec {
			t.Fatalf("%s: replayed %+v, want only the spec before it", foreign, recs)
		}
		if l.Salvaged() != len(data)-len(spec) {
			t.Fatalf("%s: salvaged %d bytes, want the %d from the foreign record on", foreign, l.Salvaged(), len(data)-len(spec))
		}
	}
}

// failAfterFS lets N appended file writes succeed, then fails every write.
type failAfterFS struct {
	store.FS
	remaining int
}

type failAfterFile struct {
	store.File
	fs *failAfterFS
}

func (f *failAfterFS) OpenAppend(path string) (store.File, error) {
	inner, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &failAfterFile{File: inner, fs: f}, nil
}

func (f *failAfterFile) Write(p []byte) (int, error) {
	if f.fs.remaining <= 0 {
		return 0, errors.New("injected: no space left on device")
	}
	f.fs.remaining--
	return f.File.Write(p)
}

func TestJobLogDegradesAfterWriteFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := &failAfterFS{FS: store.OS, remaining: 1}
	l, _ := openJobLog(t, fsys, dir)
	defer l.Close()
	mustAppend(t, l, walRecord{Kind: walSpec, ID: "j0", Spec: &JobSpec{Ops: []string{"murmur"}}})
	if err := l.Append(walRecord{Kind: walSpec, ID: "j1"}); !errors.Is(err, store.ErrLogUnavailable) {
		t.Fatalf("failed append returned %v, want ErrLogUnavailable", err)
	}
	if l.Degraded() == "" {
		t.Fatal("log not marked degraded")
	}
	// Degradation is sticky: ordering can no longer be promised.
	if err := l.Append(walRecord{Kind: walSpec, ID: "j2"}); !errors.Is(err, store.ErrLogUnavailable) {
		t.Fatalf("append after degradation returned %v, want ErrLogUnavailable", err)
	}
	// The record written before the failure is still replayable.
	_, recs := replayAll(t, dir)
	if len(recs) != 1 || recs[0].ID != "j0" {
		t.Fatalf("pre-failure record lost: %+v", recs)
	}
}
