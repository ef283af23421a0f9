package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hef/internal/dist"
	"hef/internal/sched"
)

// mainArgsEnv carries unit-separator-joined argv for the re-exec'd child;
// when set, TestMain runs the real main() instead of the test suite, so
// these tests observe the coordinator's actual exit codes, signal handling,
// and kill -9 behavior without building a separate binary.
const mainArgsEnv = "HEFSWEEP_MAIN_ARGS"

func TestMain(m *testing.M) {
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

// runMain re-executes the test binary as the coordinator with args and
// returns its exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec: %v\nstderr:\n%s", err, stderr.String())
	}
	return ee.ExitCode(), stderr.String()
}

// TestFlagValidation: bad flags are a usage error — exit 2 with the usage
// text — before any listener or data-dir side effect.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing data dir", []string{}, "-data-dir is required"},
		{"zero range size", []string{"-data-dir", "d", "-range-size", "0"}, "-range-size must be positive"},
		{"zero lease ttl", []string{"-data-dir", "d", "-lease-ttl", "0s"}, "-lease-ttl must be positive"},
		{"negative straggler", []string{"-data-dir", "d", "-straggler-after", "-1s"}, "-straggler-after must be non-negative"},
		{"zero max leases", []string{"-data-dir", "d", "-max-leases", "0"}, "-max-leases must be positive"},
		{"zero fail limit", []string{"-data-dir", "d", "-fail-limit", "0"}, "-fail-limit must be positive"},
		{"bad key file", []string{"-data-dir", "d", "-auth-keys", filepath.Join("no", "such", "keys.txt")}, "-auth-keys"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "-lease-ttl") {
				t.Fatalf("usage text not printed:\n%s", stderr)
			}
		})
	}
}

// coordProc is one re-exec'd hefsweep child serving on an ephemeral port.
type coordProc struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr bytes.Buffer
	waited bool
}

// testDeadline bounds every binary-level test: a coordinator or worker that
// never exits fails the test instead of hanging the package.
const testDeadline = time.Minute

// startCoord launches the coordinator on ":0" and scrapes the bound address
// from the machine-parseable stderr line. The process is killed at the test
// deadline.
func startCoord(t *testing.T, dataDir string, extra ...string) *coordProc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &coordProc{cmd: cmd}
	t.Cleanup(func() {
		p.mu.Lock()
		waited := p.waited
		p.mu.Unlock()
		if !waited {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "hefsweep: serving on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator did not report its address; stderr:\n%s", p.stderrText())
	}
	return p
}

func (p *coordProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// wait blocks for process exit and returns the exit code.
func (p *coordProc) wait(t *testing.T) int {
	t.Helper()
	p.mu.Lock()
	p.waited = true
	p.mu.Unlock()
	err := p.cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("wait: %v", err)
	}
	return ee.ExitCode()
}

// cmdTask is the synthetic sweep payload for the binary-level tests.
type cmdTask struct {
	ID    string `json:"id"`
	Value int    `json:"value"`
}

func cmdTasks(n int, delay time.Duration) []sched.Task[cmdTask] {
	tasks := make([]sched.Task[cmdTask], n)
	for i := 0; i < n; i++ {
		i := i
		id := fmt.Sprintf("t%03d", i)
		tasks[i] = sched.Task[cmdTask]{ID: id, Run: func(ctx context.Context) (cmdTask, error) {
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return cmdTask{}, ctx.Err()
				}
			}
			return cmdTask{ID: id, Value: i * 3}, nil
		}}
	}
	return tasks
}

func serialBytes(t *testing.T, tool, fp string, tasks []sched.Task[cmdTask]) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serial.ckpt")
	if _, err := sched.RunSweep(context.Background(), sched.SweepConfig{
		Tool: tool, Fingerprint: fp, CheckpointPath: path,
	}, tasks); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEndToEndMergedReportMatchesSerial drives the real binary with two
// workers and compares the -out checkpoint it writes at exit against an
// uninterrupted single-process run.
func TestEndToEndMergedReportMatchesSerial(t *testing.T) {
	const tool, fp = "cmdsweep", "seed=5"
	tasks := cmdTasks(18, 0)
	want := serialBytes(t, tool, fp, tasks)

	dir := t.TempDir()
	outPath := filepath.Join(dir, "merged.ckpt")
	p := startCoord(t, filepath.Join(dir, "data"),
		"-out", outPath, "-range-size", "4", "-lease-ttl", "1s")

	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Coordinator: "http://" + p.addr, Name: fmt.Sprintf("w%d", i),
				Tool: tool, Fingerprint: fp, Workers: 2,
				PollMax: 100 * time.Millisecond,
			}, tasks)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v\nstderr:\n%s", i, err, p.stderrText())
		}
	}
	if code := p.wait(t); code != 0 {
		t.Fatalf("coordinator exit = %d; stderr:\n%s", code, p.stderrText())
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("merged checkpoint: %v\nstderr:\n%s", err, p.stderrText())
	}
	if string(got) != string(want) {
		t.Fatalf("merged checkpoint differs from serial run:\n%s\n----\n%s", got, want)
	}
}

// TestKillDashNineResumesFromJournal kills the coordinator process mid-sweep
// and restarts it on the same data dir; a fresh worker finishes the sweep
// and the merged report must still be byte-identical to the serial run.
func TestKillDashNineResumesFromJournal(t *testing.T) {
	const tool, fp = "cmdsweep", "seed=9"
	tasks := cmdTasks(16, 5*time.Millisecond)
	want := serialBytes(t, tool, fp, tasks)

	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	outPath := filepath.Join(dir, "merged.ckpt")
	p1 := startCoord(t, dataDir, "-out", outPath, "-range-size", "2", "-lease-ttl", "1s")

	// One worker makes partial progress against the first process.
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline)
	defer cancel()
	ctx1, cancel1 := context.WithCancel(ctx)
	w1done := make(chan struct{})
	go func() {
		defer close(w1done)
		_, _ = dist.RunWorker(ctx1, dist.WorkerConfig{
			Coordinator: "http://" + p1.addr, Name: "w1",
			Tool: tool, Fingerprint: fp, PollMax: 50 * time.Millisecond,
		}, tasks)
	}()
	waitRangesDone(t, p1.addr, 2)
	if err := p1.cmd.Process.Kill(); err != nil { // kill -9, no drain
		t.Fatal(err)
	}
	_ = p1.wait(t)
	cancel1()
	<-w1done

	// Restart on the same journal; a new worker finishes the remainder.
	p2 := startCoord(t, dataDir, "-out", outPath, "-range-size", "2", "-lease-ttl", "1s")
	if _, err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator: "http://" + p2.addr, Name: "w2",
		Tool: tool, Fingerprint: fp, PollMax: 50 * time.Millisecond,
	}, tasks); err != nil {
		t.Fatalf("worker after restart: %v\nstderr:\n%s", err, p2.stderrText())
	}
	if code := p2.wait(t); code != 0 {
		t.Fatalf("coordinator exit = %d; stderr:\n%s", code, p2.stderrText())
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("post-restart merged checkpoint differs from serial run")
	}
}

// waitRangesDone polls GET /v1/status until at least n ranges committed.
func waitRangesDone(t *testing.T, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/status")
		if err == nil {
			var st dist.StatusResponse
			derr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if derr == nil && st.RangesDone >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ranges done never reached %d", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSIGTERMRetainsJournal: an interrupted coordinator exits 0 and leaves
// a journal a restart can resume from.
func TestSIGTERMRetainsJournal(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	p := startCoord(t, dataDir)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := p.wait(t); code != 0 {
		t.Fatalf("SIGTERM exit = %d; stderr:\n%s", code, p.stderrText())
	}
	if !strings.Contains(p.stderrText(), "journal retained") {
		t.Fatalf("drain message missing:\n%s", p.stderrText())
	}
	if _, err := os.Stat(filepath.Join(dataDir, dist.JournalName)); err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}
}
