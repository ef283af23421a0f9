package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mainArgsEnv carries unit-separator-joined argv for the re-exec'd child;
// when set, TestMain runs the real main() instead of the test suite.
const mainArgsEnv = "UOPSHIST_MAIN_ARGS"

func TestMain(m *testing.M) {
	// LookupEnv, not Getenv: a set-but-empty value means "run with zero
	// args", and must not re-run the test suite recursively.
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

// runMain re-executes the test binary as uopshist and returns its exit
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

// Bad flags are a usage error: exit 2 with the usage text, before any
// simulation runs.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"unknown cpu", []string{"-cpu", "pentium"}, "-cpu"},
		{"unknown bench", []string{"-bench", "sha1"}, "-bench must be"},
		{"zero elems", []string{"-elems", "0"}, "-elems must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage") {
				t.Fatalf("stderr missing %q or usage:\n%s", tc.want, stderr)
			}
		})
	}
}

// traceSHA256 pins the bytes of `uopshist -bench murmur -cpu silver
// -trace-out F`. A mismatch means the exporter or the simulated schedule
// changed; update it only for an intended change.
const traceSHA256 = "37a32a4ddff44fcdb817ede27d2b729a1923c49ed192c14af7f9e6d2073385ee"

// TestTraceOut checks the Chrome export end to end: valid JSON with one
// process per traced implementation (scalar, SIMD, initial hybrid), and one
// duration event per issued instruction, each on a "port N" track.
func TestTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := runMain(t, "-bench", "murmur", "-cpu", "silver", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote 3 trace sections") {
		t.Fatalf("stdout = %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace is not valid JSON:\n%.200s", data)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  string `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type counts struct{ meta, issued, dispatched, retired int }
	perPid := map[int]*counts{}
	for _, ev := range doc.TraceEvents {
		c := perPid[ev.Pid]
		if c == nil {
			c = &counts{}
			perPid[ev.Pid] = c
		}
		switch {
		case ev.Ph == "M":
			c.meta++
		case ev.Ph == "X":
			c.issued++
			if !strings.HasPrefix(ev.Tid, "port ") {
				t.Errorf("pid %d: duration event %s on track %q, want a port track", ev.Pid, ev.Name, ev.Tid)
			}
		case strings.HasPrefix(ev.Name, "dispatch "):
			c.dispatched++
		case strings.HasPrefix(ev.Name, "retire "):
			c.retired++
		}
	}
	if len(perPid) != 3 {
		t.Fatalf("trace has %d process sections, want 3", len(perPid))
	}
	for pid, c := range perPid {
		if c.meta != 1 || c.issued == 0 || c.issued != c.dispatched || c.issued != c.retired {
			t.Errorf("pid %d: %d process names, %d issued, %d dispatched, %d retired; want one name and one issue per dispatched and retired instruction",
				pid, c.meta, c.issued, c.dispatched, c.retired)
		}
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != traceSHA256 {
		t.Errorf("trace bytes changed: %d bytes, sha256 %s (want %s)", len(data), got, traceSHA256)
	}
}
