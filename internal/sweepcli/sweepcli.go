// Package sweepcli is the shared command-line harness of the three sweep
// tools (hefopt, hefsens, ssbbench). It owns the fourteen flags every sweep
// takes — checkpoint, resume, workers, parallel, timeout, coordinator,
// coordinator-key, worker-name, memo-dir, selfcheck, metrics-addr,
// heartbeat, cpuprofile and memprofile — together with their
// validation, the telemetry/profile/memo-store lifecycle, and the run of a
// task list: locally on sched.RunSweep, or as a dist worker under
// -coordinator.
//
// A tool declares its own flags next to Register, validates them with
// UsageError for the exit-2 contract, calls Start, builds its fingerprint
// and []sched.Task[T], and renders what Run returns. The stderr lines and
// exit codes are the tools' shared contract:
//
//   - a bad flag value prints "TOOL: ERR", a blank line and the usage, exit 2;
//   - an interrupted sweep (signal or -timeout) prints "TOOL: interrupted
//     with D/N NOUN done (ERR)" plus "; resume with -resume PATH" under
//     -checkpoint, exit 1;
//   - failed tasks print "TOOL: ID failed: ERR" each, then the sweep error,
//     exit 1;
//   - a worker prints "TOOL: worker done: R ranges, T NOUN run here (D
//     deduped)", exit 0, or "TOOL: worker interrupted; ..." with exit 1;
//   - -memo-dir prints "TOOL: memo store DIR: SUMMARY" when the store closes.
package sweepcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hef/internal/check"
	"hef/internal/dist"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/sched"
	"hef/internal/store"
	"hef/internal/telemetry"
	"hef/internal/telemetry/mount"
)

// Flags holds the shared sweep flags of one tool, filled in by fs.Parse.
type Flags struct {
	Checkpoint, Resume          string
	Workers, Parallel           int
	Timeout                     time.Duration
	Coordinator, CoordinatorKey string
	WorkerName                  string
	MemoDir                     string
	Selfcheck                   bool
	MetricsAddr                 string
	Heartbeat                   time.Duration
	CPUProfile, MemProfile      string

	// Trace keeps telemetry recording lifecycle spans with no server and no
	// heartbeat (ssbbench -trace-out). Set it before Start.
	Trace bool

	fs   *flag.FlagSet
	tool string
	noun string
}

// Register declares the shared sweep flags on fs. tool prefixes every
// stderr line; noun names the sweep's tasks ("operators") and sweep the
// sweep itself ("batch") in help text and progress lines.
func Register(fs *flag.FlagSet, tool, noun, sweep string) *Flags {
	f := &Flags{fs: fs, tool: tool, noun: noun}
	fs.StringVar(&f.Checkpoint, "checkpoint", "", fmt.Sprintf("persist completed %s to this file as the %s progresses", noun, sweep))
	fs.StringVar(&f.Resume, "resume", "", fmt.Sprintf("load a prior -checkpoint file and skip its completed %s", noun))
	fs.IntVar(&f.Workers, "workers", 1, fmt.Sprintf("concurrent %s (1 keeps the classic sequential run)", noun))
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent simulations within a task; output is byte-identical for every setting")
	fs.DurationVar(&f.Timeout, "timeout", 0, fmt.Sprintf("overall deadline; the %s drains cleanly when exceeded (0 disables)", sweep))
	fs.StringVar(&f.Coordinator, "coordinator", "", fmt.Sprintf("hefsweep coordinator URL; run as a distributed sweep worker leasing ranges of %s instead of running the whole %s", noun, sweep))
	fs.StringVar(&f.CoordinatorKey, "coordinator-key", "", "API key presented to the coordinator (with -coordinator)")
	fs.StringVar(&f.WorkerName, "worker-name", "", "name in coordinator logs and leases (with -coordinator; defaults to the hostname)")
	fs.StringVar(&f.MemoDir, "memo-dir", "", fmt.Sprintf("directory of a durable measurement memo store shared by all %s; measurements persist across runs and corrupt records are quarantined at open", noun))
	fs.BoolVar(&f.Selfcheck, "selfcheck", false, "enable the simulator's internal invariant self-checks (always on under go test)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus /metrics plus /healthz, /readyz, /status on this host:port (\":0\" picks a port, logged to stderr)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "emit a structured progress line to stderr at this interval (0 disables)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to this file at exit")
	return f
}

// UsageError prints err and the usage text, then exits 2.
func (f *Flags) UsageError(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n\n", f.tool, err)
	f.fs.Usage()
	os.Exit(2)
}

// validate rejects bad shared flag values. Worker options without a
// coordinator are a typo, and local checkpointing is the coordinator's job
// in worker mode.
func (f *Flags) validate() error {
	if f.Parallel <= 0 {
		return fmt.Errorf("-parallel must be positive, got %d", f.Parallel)
	}
	if f.Workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", f.Workers)
	}
	heartbeatSet := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "heartbeat" {
			heartbeatSet = true
		}
	})
	if err := telemetry.ValidateFlags(f.MetricsAddr, heartbeatSet, f.Heartbeat); err != nil {
		return err
	}
	if f.Coordinator == "" {
		if f.CoordinatorKey != "" {
			return fmt.Errorf("-coordinator-key needs -coordinator")
		}
		if f.WorkerName != "" {
			return fmt.Errorf("-worker-name needs -coordinator")
		}
	} else if f.Checkpoint != "" || f.Resume != "" {
		return fmt.Errorf("-coordinator and -checkpoint/-resume are mutually exclusive: the coordinator journals progress; render its merged checkpoint with -resume afterwards")
	}
	return nil
}

// Session is a started sweep tool: its profiles, telemetry and memo store.
type Session struct {
	*Flags
	// Tel is the mounted telemetry session; nil without -metrics-addr,
	// -heartbeat or Trace, on which every method no-ops.
	Tel *mount.Session
	// Prof is the -cpuprofile/-memprofile pair; nil without them.
	Prof *obs.Profiles
	// Memo is the -memo-dir store's cache, shared by every task; nil
	// without the flag or when the directory is unusable.
	Memo *memo.Cache

	store      *store.MemoStore
	storeStats *obs.StoreStats
}

// Start validates the shared flags (exit 2 with usage on a bad value),
// applies -selfcheck, starts the profiles, mounts telemetry and opens
// -memo-dir. An unusable memo directory warns and continues without
// persistence. Call it after the tool's own validation.
func (f *Flags) Start() *Session {
	if err := f.validate(); err != nil {
		f.UsageError(err)
	}
	if f.Selfcheck {
		check.SetEnabled(true)
	}
	prof, err := obs.StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		f.UsageError(err)
	}
	s := &Session{Flags: f, Prof: prof}
	s.Tel, err = mount.Start(mount.Options{Tool: f.tool, MetricsAddr: f.MetricsAddr, Heartbeat: f.Heartbeat, Trace: f.Trace})
	if err != nil {
		s.Fail(err)
	}
	if f.MemoDir != "" {
		if st, err := store.Open(f.MemoDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -memo-dir %s unusable, continuing without persistence: %v\n", f.tool, f.MemoDir, err)
		} else {
			s.store, s.Memo = st, st.Cache()
			s.Tel.ObserveStore(st)
		}
	}
	s.Tel.SetReady()
	return s
}

// Close closes telemetry (emitting the final heartbeat) and writes the
// profiles.
func (s *Session) Close() {
	s.Tel.Close()
	s.Prof.Stop()
}

// exit stops the profiles and telemetry, then exits with code.
func (s *Session) exit(code int) {
	s.Prof.Stop()
	s.Tel.Close()
	os.Exit(code)
}

// Fail stops the profiles and telemetry, prints err and exits 1.
func (s *Session) Fail(err error) {
	s.Prof.Stop()
	s.Tel.Close()
	fmt.Fprintln(os.Stderr, s.tool+":", err)
	os.Exit(1)
}

// CloseStore closes the -memo-dir store, compacting shards whose corrupt
// tails could not be truncated at open, and prints its one-line summary.
// A no-op without a store.
func (s *Session) CloseStore() {
	if s.store == nil {
		return
	}
	if err := s.store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: memo store close: %v\n", s.tool, err)
	}
	st := s.store.Stats()
	fmt.Fprintf(os.Stderr, "%s: memo store %s: %s\n", s.tool, s.store.Dir(), st.Summary())
	s.storeStats = obs.StoreFromStats(s.store.Dir(), st)
}

// AttachMemo replaces rep's memo block with the shared cache's aggregate
// counters plus the closed store's block. Call it at emit time only, after
// CloseStore: checkpointed reports never carry the block, so resumed and
// uninterrupted sweeps stay byte-identical outside it. A no-op without a
// store.
func (s *Session) AttachMemo(rep *obs.RunReport) {
	if s.storeStats == nil {
		return
	}
	m := obs.MemoFromStats(s.Memo.Stats())
	if m == nil {
		m = &obs.MemoStats{}
	}
	m.Store = s.storeStats
	rep.Memo = m
}

// Run executes tasks under the signal, -timeout and draining context:
// locally on sched.RunSweep with -checkpoint/-resume, or under -coordinator
// as a dist worker that leases ranges and commits them remotely. It returns
// the results by task ID, or nil in worker mode, where the coordinator's
// merged checkpoint is rendered later with -resume. An interrupt or a
// failed task prints its stderr line and exits 1.
//
// fingerprint names every flag that shapes a task's value: a checkpoint or
// coordinator plan under another fingerprint is refused, not mixed in.
func Run[T any](s *Session, fingerprint string, tasks []sched.Task[T]) map[string]T {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	// A signal or the deadline flips /healthz to draining while the sweep
	// drains and the metrics endpoint keeps serving.
	defer context.AfterFunc(ctx, s.Tel.SetDraining)()

	if s.Coordinator != "" {
		stats, err := dist.RunWorker(ctx, dist.WorkerConfig{
			Coordinator: s.Coordinator, APIKey: s.CoordinatorKey, Name: workerIdentity(s.WorkerName),
			Tool: s.tool, Fingerprint: fingerprint,
			Workers: s.Workers,
			LogW:    os.Stderr,
			Metrics: s.Tel.SweepMetrics(),
		}, tasks)
		s.CloseStore()
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "%s: worker interrupted; the coordinator re-leases any unfinished range\n", s.tool)
				s.exit(1)
			}
			s.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "%s: worker done: %d ranges, %d %s run here (%d deduped)\n",
			s.tool, stats.Ranges, stats.Tasks, s.noun, stats.Duplicates)
		return nil
	}

	res, err := sched.RunSweep(ctx, sched.SweepConfig{
		Tool:           s.tool,
		Fingerprint:    fingerprint,
		CheckpointPath: s.Checkpoint,
		ResumePath:     s.Resume,
		Workers:        s.Workers,
		Metrics:        s.Tel.SweepMetrics(),
	}, tasks)
	if err != nil {
		if res != nil && res.Interrupted {
			hint := ""
			if s.Checkpoint != "" {
				hint = "; resume with -resume " + s.Checkpoint
			}
			fmt.Fprintf(os.Stderr, "%s: interrupted with %d/%d %s done (%v)%s\n",
				s.tool, len(res.Results), len(tasks), s.noun, err, hint)
			s.exit(1)
		}
		if errors.Is(err, sched.ErrJobsFailed) {
			for _, f := range res.Failed {
				fmt.Fprintf(os.Stderr, "%s: %s failed: %v\n", s.tool, f.ID, f.Err)
			}
		}
		s.Fail(err)
	}
	return res.Results
}

// workerIdentity resolves -worker-name, defaulting to the hostname so a
// fleet's coordinator logs tell workers apart without configuration.
func workerIdentity(name string) string {
	if name != "" {
		return name
	}
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "worker"
}

// SplitList splits a comma-separated flag value, dropping blanks.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
