package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// mainArgsEnv carries unit-separator-joined argv for the re-exec'd child;
// when set, TestMain runs the real main() instead of the test suite, so
// these tests observe the daemon's actual exit codes, signal handling, and
// kill -9 behavior without building a separate binary.
const mainArgsEnv = "HEFD_MAIN_ARGS"

func TestMain(m *testing.M) {
	// LookupEnv, not Getenv: a set-but-empty value means "run the daemon
	// with zero args" (the missing -data-dir case). Treating empty as
	// absent would make that child re-run the test suite — recursively.
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

// runMain re-executes the test binary as the daemon with args and returns
// its exit code and stderr (for the flag-validation contract, where the
// process exits on its own).
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
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
		{"zero workers", []string{"-data-dir", "d", "-workers", "0"}, "-workers must be positive"},
		{"zero queue", []string{"-data-dir", "d", "-queue", "0"}, "-queue must be positive"},
		{"negative quota rate", []string{"-data-dir", "d", "-quota-rate", "-1"}, "-quota-rate must be non-negative"},
		{"negative quota burst", []string{"-data-dir", "d", "-quota-burst", "-2"}, "-quota-burst must be non-negative"},
		{"negative breaker threshold", []string{"-data-dir", "d", "-breaker-threshold", "-1"}, "-breaker-threshold must be non-negative"},
		{"negative breaker cooldown", []string{"-data-dir", "d", "-breaker-cooldown", "-1s"}, "-breaker-cooldown must be non-negative"},
		{"zero drain timeout", []string{"-data-dir", "d", "-drain-timeout", "0s"}, "-drain-timeout must be positive"},
		{"negative heartbeat", []string{"-data-dir", "d", "-heartbeat", "-5s"}, "-heartbeat must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "-drain-timeout") {
				t.Fatalf("usage text not printed:\n%s", stderr)
			}
		})
	}
}

// daemon is one re-exec'd hefd child process serving on an ephemeral port.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr bytes.Buffer
	waited bool
}

// startDaemon launches the daemon on ":0" and scrapes the bound address
// from the machine-parseable stderr line.
func startDaemon(t *testing.T, dataDir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if !d.done() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "hefd: serving on "); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not report its address; stderr:\n%s", d.Stderr())
	}
	return d
}

func (d *daemon) Stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

func (d *daemon) done() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waited
}

// wait reaps the child and returns its exit code.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	err := d.cmd.Wait()
	d.mu.Lock()
	d.waited = true
	d.mu.Unlock()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("wait: %v", err)
	}
	return ee.ExitCode()
}

// kill delivers SIGKILL — the crash the write-ahead log exists for.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.wait(t)
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

type jobView struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	OpsDone int    `json:"ops_done"`
	Error   string `json:"error"`
}

func submitJob(t *testing.T, d *daemon, spec string) jobView {
	t.Helper()
	resp, err := http.Post(d.url("/v1/jobs"), "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, d *daemon, id string) (jobView, bool) {
	t.Helper()
	resp, err := http.Get(d.url("/v1/jobs/" + id))
	if err != nil {
		return jobView{}, false // daemon restarting/killed mid-poll
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d\n%s", id, resp.StatusCode, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v, true
}

func waitDone(t *testing.T, d *daemon, id string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		v, ok := getJob(t, d, id)
		if ok {
			switch v.State {
			case "done":
				return
			case "failed", "cancelled":
				t.Fatalf("job %s resolved %s: %s\ndaemon stderr:\n%s", id, v.State, v.Error, d.Stderr())
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished; daemon stderr:\n%s", id, d.Stderr())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getReport(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url("/v1/jobs/" + id + "/report"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d\n%s", resp.StatusCode, data)
	}
	return data
}

// chaosSpec runs the real optimization pipeline, sized so each operator
// takes a humanly observable moment: the kill lands between operators.
const chaosSpec = `{"ops":["murmur","crc64","probe"],"elems":2048,"budget":80}`

// The tentpole end-to-end proof: kill -9 mid-job, restart on the same data
// dir, and the finished report is byte-identical to an uninterrupted run's.
func TestKillDashNineRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer twice; skipped in -short")
	}
	// Baseline: the uninterrupted run on its own data dir.
	baseline := startDaemon(t, t.TempDir())
	bj := submitJob(t, baseline, chaosSpec)
	waitDone(t, baseline, bj.ID)
	want := getReport(t, baseline, bj.ID)
	baseline.kill(t)

	// Chaos run: same spec, kill -9 after at least one operator completed
	// (so the sweep checkpoint has real content) but before the job ends.
	dir := t.TempDir()
	d1 := startDaemon(t, dir)
	cj := submitJob(t, d1, chaosSpec)
	if cj.ID != bj.ID {
		t.Fatalf("deterministic job IDs diverged: %s vs %s", cj.ID, bj.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, ok := getJob(t, d1, cj.ID)
		if ok && v.OpsDone >= 1 {
			break
		}
		if ok && v.State == "done" {
			t.Log("job finished before the kill; recovery degenerates to serving the stored report")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no operator completed; stderr:\n%s", d1.Stderr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.kill(t)

	// Restart on the same data dir: the job must be recovered, resumed,
	// and finished — with the exact baseline bytes.
	d2 := startDaemon(t, dir)
	waitDone(t, d2, cj.ID)
	got := getReport(t, d2, cj.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash report differs from uninterrupted baseline\n--- baseline (%d bytes)\n%s\n--- recovered (%d bytes)\n%s",
			len(want), want, len(got), got)
	}
	d2.kill(t)
}

// SIGTERM is the graceful path: readiness flips to draining, the process
// exits 0, and parked/queued work completes after a restart.
func TestSIGTERMDrainThenRestartFinishesJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer; skipped in -short")
	}
	dir := t.TempDir()
	d1 := startDaemon(t, dir)

	// Readiness is up before the drain.
	resp, err := http.Get(d1.url("/readyz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}

	v := submitJob(t, d1, chaosSpec)
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d1.wait(t); code != 0 {
		t.Fatalf("SIGTERM exit = %d, want 0; stderr:\n%s", code, d1.Stderr())
	}
	if !strings.Contains(d1.Stderr(), "drained") {
		t.Fatalf("drain not logged:\n%s", d1.Stderr())
	}

	d2 := startDaemon(t, dir)
	waitDone(t, d2, v.ID)
	report := getReport(t, d2, v.ID)
	if !json.Valid(report) {
		t.Fatalf("resumed report is not JSON:\n%s", report)
	}
	d2.kill(t)
}

// The daemon's telemetry serves from the API listener.
func TestServesMetricsOnAPIListener(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"hefd_jobs_queued", "hefd_jobs_accepted_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	d.kill(t)
}

// A full queue at the HTTP surface: 429 with Retry-After and the typed
// body, proving admission control holds end to end.
func TestHTTPOverloadSheds(t *testing.T) {
	// Tiny queue, one worker, a spec slow enough to hold capacity.
	d := startDaemon(t, t.TempDir(), "-queue", "1", "-workers", "1")
	submitJob(t, d, chaosSpec)
	resp, err := http.Post(d.url("/v1/jobs"), "application/json", strings.NewReader(chaosSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d\n%s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(data), "queue_full") {
		t.Fatalf("untyped shed body:\n%s", data)
	}
	d.kill(t)
}

// The lifecycle flags validate before any side effect: explicit
// non-positive retention values and unusable key files are usage errors.
func TestLifecycleFlagValidation(t *testing.T) {
	dir := t.TempDir()
	badKeys := filepath.Join(dir, "keys")
	if err := os.WriteFile(badKeys, []byte("short x\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero retain-age", []string{"-data-dir", "d", "-retain-age", "0s"}, "-retain-age must be positive when set"},
		{"negative retain-age", []string{"-data-dir", "d", "-retain-age", "-5s"}, "-retain-age must be positive when set"},
		{"zero retain-count", []string{"-data-dir", "d", "-retain-count", "0"}, "-retain-count must be positive when set"},
		{"negative retain-count", []string{"-data-dir", "d", "-retain-count", "-3"}, "-retain-count must be positive when set"},
		{"missing key file", []string{"-data-dir", "d", "-auth-keys", filepath.Join(dir, "absent")}, "-auth-keys"},
		{"malformed key file", []string{"-data-dir", "d", "-auth-keys", badKeys}, "key shorter than"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runMain(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "-drain-timeout") {
				t.Fatalf("usage text not printed:\n%s", stderr)
			}
		})
	}
}

// authPost submits spec with a bearer key and returns status + body.
func authPost(t *testing.T, d *daemon, key, spec string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", d.url("/v1/jobs"), strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// fastSpec completes in well under a second: admission and auth tests only
// need the accept/refuse verdict, not a long-running pipeline.
const fastSpec = `{"ops":["murmur"],"elems":64,"budget":10}`

// SIGHUP swaps the key file without a restart: the rotated-out key stops
// working, the rotated-in key starts, and a job accepted before the reload
// runs to completion under the old identity.
func TestSIGHUPReloadsKeyFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer; skipped in -short")
	}
	dir := t.TempDir()
	keys := filepath.Join(dir, "keys")
	if err := os.WriteFile(keys, []byte("alice-key-0001 alice\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, t.TempDir(), "-auth-keys", keys)

	if code, body := authPost(t, d, "", fastSpec); code != http.StatusUnauthorized {
		t.Fatalf("keyless submit: %d\n%s", code, body)
	}
	// In-flight work accepted under the old ring must survive the reload.
	code, body := authPost(t, d, "alice-key-0001", chaosSpec)
	if code != http.StatusAccepted {
		t.Fatalf("authed submit: %d\n%s", code, body)
	}
	var inflight jobView
	if err := json.Unmarshal([]byte(body), &inflight); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(keys, []byte("carol-key-0003 carol\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _ := authPost(t, d, "alice-key-0001", fastSpec); code == http.StatusUnauthorized {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotated-out key still accepted after SIGHUP; stderr:\n%s", d.Stderr())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := authPost(t, d, "carol-key-0003", fastSpec); code != http.StatusAccepted {
		t.Fatalf("rotated-in key: %d\n%s", code, body)
	}
	if !strings.Contains(d.Stderr(), "keyring reloaded") {
		t.Fatalf("reload not logged:\n%s", d.Stderr())
	}

	// The pre-reload job finishes; its status stays readable with the job's
	// own tenant key gone (carol owns nothing, alice's job belongs to alice
	// — reads come through carol and must be refused, so poll unauthed off).
	req, _ := http.NewRequest("GET", d.url("/v1/jobs/"+inflight.ID), nil)
	req.Header.Set("Authorization", "Bearer carol-key-0003")
	deadline = time.Now().Add(3 * time.Minute)
	for {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusForbidden {
			break // the job still exists and still belongs to alice
		}
		if time.Now().After(deadline) {
			t.Fatalf("pre-reload job unreadable: %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.kill(t)
}

// A dry token bucket survives kill -9 end to end: the restarted daemon
// still sheds the tenant with 429 instead of refunding a fresh burst.
func TestAdmissionStateSurvivesKillDashNine(t *testing.T) {
	dir := t.TempDir()
	d1 := startDaemon(t, dir, "-quota-rate", "0.0001", "-quota-burst", "1")
	v := submitJob(t, d1, fastSpec)
	waitDone(t, d1, v.ID)
	resp, err := http.Post(d1.url("/v1/jobs"), "application/json", strings.NewReader(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(data), "quota") {
		t.Fatalf("bucket not dry before kill: %d\n%s", resp.StatusCode, data)
	}
	d1.kill(t)

	d2 := startDaemon(t, dir, "-quota-rate", "0.0001", "-quota-burst", "1")
	resp, err = http.Post(d2.url("/v1/jobs"), "application/json", strings.NewReader(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(data), "quota") {
		t.Fatalf("restart refunded the dry bucket: %d\n%s", resp.StatusCode, data)
	}
	d2.kill(t)
}
