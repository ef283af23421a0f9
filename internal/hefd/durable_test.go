package hefd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hef/internal/dist"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
)

var updateDurable = flag.Bool("update", false, "rewrite testdata/durable.golden from the current durable-file bytes")

// durableEnv is the state the durable-bytes table threads through its
// steps: one hefd data dir, one coordinator data dir, one fake clock.
type durableEnv struct {
	hefdDir, distDir string
	clock            *sched.FakeClock
}

// config is the daemon configuration every step opens: one worker (so the
// job log's record order is fixed), quotas and breakers live (so
// admission.state carries both maps), and a runOp that fails mallory's
// jobs and succeeds everyone else's.
func (e *durableEnv) config() Config {
	return Config{
		DataDir: e.hefdDir, Workers: 1, LogW: io.Discard, Clock: e.clock,
		Quota:   QuotaConfig{Rate: 1, Burst: 5},
		Breaker: sched.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		runOp: func(ctx context.Context, spec JobSpec, op string) (*obs.RunReport, error) {
			if spec.Tenant == "mallory" {
				return nil, errors.New("poisoned spec")
			}
			return stubRun(ctx, spec, op)
		},
	}
}

func (e *durableEnv) coordinator(t *testing.T) *dist.Coordinator {
	t.Helper()
	c, err := dist.NewCoordinator(dist.Config{DataDir: e.distDir, RangeSize: 2, Clock: e.clock})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tornFrame is the first half of a well-formed frame: what a kill -9 in
// the middle of an append leaves at the tail of a log.
func tornFrame() []byte {
	frame := store.AppendRecord(nil, []byte(`{"kind":"state","id":"torn"}`))
	return frame[:len(frame)/2]
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, b...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFileBytes pins the exact bytes of jobs.log, sweep.log and
// admission.state (plus the logs' quarantine sidecars) after each step of
// a fixed history: a sequence of appends, a jobs.log compaction, and an
// open that salvages a torn frame appended to each log. Run with -update
// to rewrite testdata/durable.golden after an intended format change.
func TestDurableFileBytes(t *testing.T) {
	root := t.TempDir()
	env := &durableEnv{
		hefdDir: filepath.Join(root, "hefd"), distDir: filepath.Join(root, "dist"),
		clock: sched.NewFakeClock(time.Unix(1000, 0)),
	}
	steps := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"appends", func(t *testing.T) {
			m, err := New(env.config())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				tenant, op string
				want       JobState
			}{
				{"alice", "murmur", StateDone},
				{"mallory", "murmur", StateFailed},
				{"alice", "crc64", StateDone},
			} {
				v, err := m.Submit(JobSpec{Tenant: s.tenant, Ops: []string{s.op}})
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, m, v.ID, s.want)
				env.clock.Advance(time.Second)
			}
			var shed *ShedError
			if _, err := m.Submit(JobSpec{Tenant: "mallory", Ops: []string{"crc64"}}); !errors.As(err, &shed) || shed.Code != ShedBreakerOpen {
				t.Fatalf("mallory after a failure: %v, want %s", err, ShedBreakerOpen)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			c := env.coordinator(t)
			plan := &dist.PlanRequest{Version: dist.ProtocolVersion, Tool: "testsweep",
				Fingerprint: "seed=1", TaskIDs: []string{"t0", "t1", "t2", "t3"}, Worker: "w1"}
			pr, err := c.RegisterPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			l, err := c.Lease(&dist.LeaseRequest{Worker: "w1", PlanHash: pr.PlanHash})
			if err != nil {
				t.Fatal(err)
			}
			results := map[string]json.RawMessage{}
			for _, id := range plan.TaskIDs[l.Range.Start:l.Range.End] {
				results[id] = json.RawMessage(fmt.Sprintf(`{"id":%q}`, id))
			}
			if _, err := c.Commit(&dist.ResultRequest{Worker: "w1", PlanHash: pr.PlanHash,
				LeaseID: l.LeaseID, RangeIdx: l.RangeIdx, Range: l.Range, Results: results}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Lease(&dist.LeaseRequest{Worker: "w2", PlanHash: pr.PlanHash}); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"compact", func(t *testing.T) {
			// Keeping one terminal job per tenant expires alice's first job;
			// the startup compaction then rewrites the log without it.
			cfg := env.config()
			cfg.Retention = RetentionConfig{Count: 1}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c := m.Counts(); c.Compactions != 1 {
				t.Fatalf("compactions = %d, want 1", c.Compactions)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"salvage", func(t *testing.T) {
			appendBytes(t, filepath.Join(env.hefdDir, JobLogName), tornFrame())
			appendBytes(t, filepath.Join(env.distDir, dist.JournalName), tornFrame())
			m, err := New(env.config())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if err := env.coordinator(t).Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}

	var b bytes.Buffer
	for _, s := range steps {
		t.Run(s.name, s.run)
		fmt.Fprintf(&b, "=== %s\n", s.name)
		for _, f := range []string{
			filepath.Join(env.hefdDir, JobLogName),
			filepath.Join(env.hefdDir, JobLogName+".quarantine"),
			filepath.Join(env.hefdDir, AdmissionStateName),
			filepath.Join(env.distDir, dist.JournalName),
			filepath.Join(env.distDir, dist.JournalName+".quarantine"),
		} {
			renderDurable(&b, f)
		}
	}

	path := filepath.Join("testdata", "durable.golden")
	if *updateDurable {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("durable bytes differ from testdata/durable.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}

// renderDurable writes one file's bytes in a reviewable but lossless form:
// a quarantine sidecar verbatim (quoted), a record file frame by frame as
// length, CRC and payload, with any bytes that do not form a whole frame
// quoted as the tail.
func renderDurable(b *bytes.Buffer, path string) {
	name := filepath.Base(path)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(b, "--- %s absent\n", name)
		return
	}
	fmt.Fprintf(b, "--- %s (%d bytes)\n", name, len(data))
	if strings.HasSuffix(name, ".quarantine") {
		fmt.Fprintf(b, "%q\n", data)
		return
	}
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-8) {
			break
		}
		fmt.Fprintf(b, "frame %d %08x %s\n", n, binary.LittleEndian.Uint32(data[4:]), data[8:8+n])
		data = data[8+n:]
	}
	if len(data) > 0 {
		fmt.Fprintf(b, "tail %q\n", data)
	}
}
