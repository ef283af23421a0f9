package sweepcli_test

// Characterization tests for the shared sweep plumbing of hefopt, hefsens
// and ssbbench: the interrupted-sweep message and its -resume hint, the
// checkpoint/resume byte identity of stdout, and the -memo-dir summary
// line. They build and run the real binaries, so they pin the behaviour at
// the process boundary whatever package wires it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sweepTool is one sweep CLI with its cheapest complete sweep.
type sweepTool struct {
	name string
	// args run a small but real sweep of n tasks, named noun on stderr.
	args []string
	n    int
	noun string
}

var sweepTools = []sweepTool{
	{"hefopt", []string{"-op", "murmur,crc64", "-elems", "256", "-budget", "3"}, 2, "operators"},
	{"hefsens", []string{"-op", "murmur,crc64", "-cpu", "silver", "-trials", "1", "-elems", "256", "-budget", "3"}, 2, "analyses"},
	{"ssbbench", []string{"-all", "-sample", "0.0001", "-format", "csv"}, 6, "figures"},
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles the three CLIs once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the sweep CLIs")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "sweepcli-bin-")
		if buildErr != nil {
			return
		}
		goBin, err := exec.LookPath("go")
		if err != nil {
			buildErr = err
			return
		}
		args := []string{"build", "-o", binDir + string(os.PathSeparator)}
		for _, tl := range sweepTools {
			args = append(args, "hef/cmd/"+tl.name)
		}
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// run executes one tool and returns its exit code, stdout and stderr.
func run(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String(), stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\nstderr:\n%s", bin, args, err, stderr.String())
	}
	return ee.ExitCode(), stdout.String(), stderr.String()
}

func with(base []string, extra ...string) []string {
	return append(append([]string(nil), base...), extra...)
}

// TestSweepCLIContract runs each tool through the shared sweep paths: an
// interrupt with a checkpoint, a checkpointed run under -memo-dir, and a
// resume that must reprint the uninterrupted run's stdout byte for byte.
func TestSweepCLIContract(t *testing.T) {
	dir := buildTools(t)
	for _, tl := range sweepTools {
		tl := tl
		t.Run(tl.name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(dir, tl.name)
			tmp := t.TempDir()

			// The deadline has passed before the sweep starts, but a worker
			// may already hold a task when the runner stops, and an ssbbench
			// figure does not poll its context, so D/N is D < N, not 0/N.
			ckpt := filepath.Join(tmp, "interrupted.ckpt")
			code, _, stderr := run(t, bin, with(tl.args, "-timeout", "1ns", "-checkpoint", ckpt)...)
			if code != 1 {
				t.Fatalf("-timeout 1ns: exit = %d, want 1; stderr:\n%s", code, stderr)
			}
			line := regexp.MustCompile(fmt.Sprintf(`%s: interrupted with (\d+)/%d %s done \(context deadline exceeded\); resume with -resume (\S+)`,
				tl.name, tl.n, tl.noun)).FindStringSubmatch(stderr)
			if line == nil {
				t.Fatalf("-timeout 1ns: no interrupt line with a resume hint:\n%s", stderr)
			}
			if d, _ := strconv.Atoi(line[1]); d >= tl.n || line[2] != ckpt {
				t.Fatalf("-timeout 1ns: interrupt line %q, want fewer than %d done and -resume %s", line[0], tl.n, ckpt)
			}

			code, want, stderr := run(t, bin, tl.args...)
			if code != 0 {
				t.Fatalf("uninterrupted: exit = %d; stderr:\n%s", code, stderr)
			}

			ckpt = filepath.Join(tmp, "full.ckpt")
			memoDir := filepath.Join(tmp, "memo")
			code, got, stderr := run(t, bin, with(tl.args, "-checkpoint", ckpt, "-memo-dir", memoDir)...)
			if code != 0 {
				t.Fatalf("-checkpoint -memo-dir: exit = %d; stderr:\n%s", code, stderr)
			}
			if got != want {
				t.Fatalf("-checkpoint -memo-dir stdout differs from the uninterrupted run:\n%s\n----\n%s", got, want)
			}
			if line := fmt.Sprintf("%s: memo store %s: ", tl.name, memoDir); !strings.Contains(stderr, line) {
				t.Fatalf("-memo-dir: stderr missing %q:\n%s", line, stderr)
			}

			code, got, stderr = run(t, bin, with(tl.args, "-resume", ckpt)...)
			if code != 0 {
				t.Fatalf("-resume: exit = %d; stderr:\n%s", code, stderr)
			}
			if got != want {
				t.Fatalf("-resume stdout differs from the uninterrupted run:\n%s\n----\n%s", got, want)
			}
		})
	}
}
