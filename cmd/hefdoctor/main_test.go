package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hef/internal/dist"
	"hef/internal/hefd"
	"hef/internal/store"
)

// mainArgsEnv carries unit-separator-joined argv for the re-exec'd child;
// when set, TestMain runs the real main() instead of the test suite, so the
// tests observe hefdoctor's actual exit codes.
const mainArgsEnv = "HEFDOCTOR_MAIN_ARGS"

func TestMain(m *testing.M) {
	// LookupEnv, not Getenv: a set-but-empty value means "run with zero
	// args" (the no-artifacts usage case). Treating empty as absent would
	// make that child re-run the test suite — recursively.
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		if args != "" {
			os.Args = append(os.Args[:1], strings.Split(args, "\x1f")...)
		} else {
			os.Args = os.Args[:1]
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as hefdoctor and returns its exit
// code, stdout, and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String(), stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec: %v\nstderr:\n%s", err, stderr.String())
	}
	return ee.ExitCode(), stdout.String(), stderr.String()
}

// No artifacts is a usage error: exit 2 and the usage text, distinct from
// exit 1 (artifacts examined and found damaged).
func TestNoArgsIsUsageError(t *testing.T) {
	code, _, stderr := runMain(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "no artifacts given") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
	if !strings.Contains(stderr, "-repair") {
		t.Fatalf("usage text not printed:\n%s", stderr)
	}
}

// The exit contract on real artifacts: 0 for healthy, 1 for corrupt,
// corruption in any one argument poisons the whole run, and a successful
// -repair returns the artifact (and the exit code) to health.
func TestExitCodesReflectArtifactHealth(t *testing.T) {
	dir := t.TempDir()
	healthy := filepath.Join(dir, "healthy.jsonl")
	if err := os.WriteFile(healthy, []byte("{\"ok\":true}\n{\"ok\":false}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(corrupt, []byte("{\"ok\":true}\n{\"ok\":false}\n{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	if code, stdout, stderr := runMain(t, healthy); code != 0 {
		t.Fatalf("healthy artifact: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	code, stdout, _ := runMain(t, corrupt)
	if code != 1 {
		t.Fatalf("corrupt artifact: exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	if code, _, _ = runMain(t, healthy, corrupt); code != 1 {
		t.Fatalf("mixed artifacts: exit %d, want 1", code)
	}
	// Repair trims the torn tail in place; the verdict and the next plain
	// run both report health.
	if code, stdout, _ = runMain(t, "-repair", corrupt); code != 0 || !strings.Contains(stdout, "repaired") {
		t.Fatalf("repair run: exit %d\nstdout:\n%s", code, stdout)
	}
	if code, stdout, _ = runMain(t, corrupt); code != 0 {
		t.Fatalf("post-repair artifact still corrupt: exit %d\nstdout:\n%s", code, stdout)
	}
}

// The exit contract extends to the service artifacts: a torn jobs.log,
// sweep.log or admission.state exits 1, -repair salvages each back to
// exit 0.
func TestExitCodesOnHefdArtifacts(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, hefd.JobLogName)
	frames := store.AppendRecord(nil, []byte(`{"kind":"spec","id":"j000001-aa","seq":1}`))
	frames = store.AppendRecord(frames, []byte(`{"kind":"state","id":"j000001-aa","state":"done","at_ms":7}`))
	if err := os.WriteFile(log, append(append([]byte{}, frames...), 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, dist.JournalName)
	jframes := store.AppendRecord(nil, []byte(`{"kind":"plan","tool":"t","fingerprint":"f","task_ids":["a"],"range_size":1,"range_idx":0}`))
	jframes = store.AppendRecord(jframes, []byte(`{"kind":"grant","seq":1,"range_idx":0,"worker":"w1"}`))
	if err := os.WriteFile(journal, append(append([]byte{}, jframes...), jframes[:9]...), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, hefd.AdmissionStateName)
	good, err := hefd.EncodeAdmissionState(hefd.AdmissionState{
		Buckets: map[string]hefd.BucketState{"a": {Tokens: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, good[:len(good)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, _ := runMain(t, log, journal, snap)
	if code != 1 {
		t.Fatalf("torn service artifacts: exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	for _, kind := range []string{"job-log", "sweep-journal", "admission-state"} {
		if !strings.Contains(stdout, kind) {
			t.Fatalf("kind %s missing from findings:\n%s", kind, stdout)
		}
	}
	if code, stdout, _ = runMain(t, "-repair", log, journal, snap); code != 0 {
		t.Fatalf("repair run: exit %d\nstdout:\n%s", code, stdout)
	}
	if code, stdout, _ = runMain(t, log, journal, snap); code != 0 {
		t.Fatalf("post-repair: exit %d\nstdout:\n%s", code, stdout)
	}
	// The salvage matches the services' own: logs truncated to the valid
	// prefix, snapshot reset to the empty zero state.
	if got, err := os.ReadFile(log); err != nil || len(got) != len(frames) {
		t.Fatalf("repaired log is %d bytes, want %d (%v)", len(got), len(frames), err)
	}
	if got, err := os.ReadFile(journal); err != nil || len(got) != len(jframes) {
		t.Fatalf("repaired journal is %d bytes, want %d (%v)", len(got), len(jframes), err)
	}
	if got, err := os.ReadFile(snap); err != nil || len(got) != 0 {
		t.Fatalf("repaired snapshot is %d bytes, want 0 (%v)", len(got), err)
	}
}
