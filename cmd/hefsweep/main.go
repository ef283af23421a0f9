// Command hefsweep coordinates a distributed sweep: workers running the
// sweep tools with -coordinator lease fingerprint-addressed task ranges
// over HTTP/JSON, heartbeat while computing, and commit byte-deterministic
// results that merge into a report identical to a single-process run.
//
//	POST /v1/plan       register (or re-verify) the sweep plan
//	POST /v1/lease      lease the next task range (expiring; heartbeats renew)
//	POST /v1/heartbeat  renew a lease while its range computes
//	POST /v1/result     commit a completed range (idempotent, deduped)
//	POST /v1/fail       report a range failure against the failure budget
//	GET  /v1/status     sweep progress and fault counters
//	GET  /metrics, /healthz, /readyz, /status   telemetry on the same listener
//
// The first worker to register fixes the plan; every later worker must
// present the same tool, fingerprint, and task list or be refused — a
// misconfigured worker cannot poison a sweep. Lease grants and committed
// ranges are journaled (CRC-framed, fsync per record) under -data-dir
// before they are acknowledged: kill -9 the coordinator, restart it on the
// same directory, and the sweep resumes with no lost and no double-counted
// work. Dead or partitioned workers just stop heartbeating — their leases
// lapse and the ranges re-dispatch; a straggler's range is speculatively
// re-leased after -straggler-after. When every range is committed the
// merged checkpoint is written to -out (or stdout), and the process exits 0
// once its workers have gone quiet: each has been told the sweep is done,
// and none has asked anything for half a lease TTL.
//
// Usage:
//
//	hefsweep -data-dir /var/lib/hefsweep -out merged.ckpt
//	hefsweep -addr :9931 -data-dir d -range-size 8 -lease-ttl 15s -auth-keys keys.txt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"hef/internal/dist"
	"hef/internal/httpapi"
	"hef/internal/store"
	"hef/internal/telemetry"
	"hef/internal/telemetry/mount"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":9931", `listen address (":0" picks a free port, logged to stderr)`)
	dataDir := flag.String("data-dir", "", "directory for the sweep journal (required)")
	out := flag.String("out", "", "write the merged checkpoint here when the sweep completes (atomic rotate; \"\" writes to stdout)")
	rangeSize := flag.Int("range-size", 8, "tasks per leased range")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "lease expiry; workers heartbeat at a third of this")
	straggler := flag.Duration("straggler-after", 0, "speculatively re-lease a range still uncommitted after this long (0 selects 3x -lease-ttl)")
	maxLeases := flag.Int("max-leases", 2, "concurrent leases per range once speculation kicks in")
	failLimit := flag.Int("fail-limit", 3, "range failure reports tolerated before the sweep fails")
	authKeys := flag.String("auth-keys", "", "API key file (\"<key> <name> [scope=ro]\" per line); SIGHUP reloads it (empty disables auth)")
	heartbeat := flag.Duration("heartbeat", 0, "emit a structured progress line to stderr at this interval (0 disables)")
	flag.Parse()
	heartbeatSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "heartbeat" {
			heartbeatSet = true
		}
	})

	if err := validate(*dataDir, *rangeSize, *leaseTTL, *straggler, *maxLeases, *failLimit); err != nil {
		fmt.Fprintf(os.Stderr, "hefsweep: %v\n\n", err)
		flag.Usage()
		return 2
	}
	if err := telemetry.ValidateFlags("", heartbeatSet, *heartbeat); err != nil {
		fmt.Fprintf(os.Stderr, "hefsweep: %v\n\n", err)
		flag.Usage()
		return 2
	}

	// The keyring swaps atomically on SIGHUP: in-flight requests see either
	// the old or the new ring, never a mix; a broken edit keeps the old one.
	var ring atomic.Pointer[httpapi.Keyring]
	if *authKeys != "" {
		r, err := httpapi.LoadKeyring(nil, *authKeys, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hefsweep: -auth-keys: %v\n\n", err)
			flag.Usage()
			return 2
		}
		ring.Store(r)
	}

	tel, err := mount.Start(mount.Options{Tool: "hefsweep", Embedded: true, Heartbeat: *heartbeat})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	}
	defer tel.Close()

	coord, err := dist.NewCoordinator(dist.Config{
		DataDir:           *dataDir,
		RangeSize:         *rangeSize,
		LeaseTTL:          *leaseTTL,
		StragglerAfter:    *straggler,
		MaxLeasesPerRange: *maxLeases,
		FailLimit:         *failLimit,
		LogW:              os.Stderr,
		Metrics:           telemetry.NewDistMetrics(tel.Registry()),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	}
	defer coord.Close()

	// Install the signal handler before the address is announced: anyone
	// scripting against the "serving on" line may signal immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	}
	// The port line is machine-parseable on purpose: tests and scripts bind
	// ":0" and scrape the actual address from here.
	fmt.Fprintf(os.Stderr, "hefsweep: serving on %s\n", ln.Addr())

	keysFn := func() *httpapi.Keyring { return ring.Load() }
	if *authKeys == "" {
		keysFn = nil
	}
	srv := telemetry.NewHTTPServer(dist.NewHandler(coord, keysFn, tel.Handler()))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	tel.SetReady()

	// Workers drive lease expiry as a side effect of polling; this ticker
	// keeps stragglers' leases lapsing even when no worker is left polling.
	expStop := make(chan struct{})
	expDone := make(chan struct{})
	go func() {
		defer close(expDone)
		tick := time.NewTicker(*leaseTTL / 2)
		defer tick.Stop()
		for {
			select {
			case <-expStop:
				return
			case <-tick.C:
				coord.ExpireLeases()
			}
		}
	}()
	defer func() { close(expStop); <-expDone }()

	// SIGHUP re-reads the key file in place.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	hupDone := make(chan struct{})
	go func() {
		defer close(hupDone)
		for range hup {
			r, err := httpapi.LoadKeyring(nil, *authKeys, nil, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hefsweep: key reload: %v (keeping the old ring)\n", err)
				continue
			}
			ring.Store(r)
			fmt.Fprintf(os.Stderr, "hefsweep: key file reloaded: %d keys\n", r.Len())
		}
	}()
	defer func() { signal.Stop(hup); close(hup); <-hupDone }()

	select {
	case <-ctx.Done():
		// Interrupted mid-sweep: the journal already holds every grant and
		// commit, so a restart on the same -data-dir resumes exactly here.
		fmt.Fprintln(os.Stderr, "hefsweep: interrupted; journal retained — restart on the same -data-dir to resume")
		tel.SetDraining()
		shutdown(srv)
		return 0
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	case <-coord.Done():
	}

	if err := coord.Err(); err != nil {
		st := coord.Status()
		fmt.Fprintf(os.Stderr, "hefsweep: %v (%d/%d ranges committed)\n", err, st.RangesDone, st.Ranges)
		waitQuiet(ctx, coord)
		tel.SetDraining()
		shutdown(srv)
		return 1
	}
	cp, err := coord.MergedCheckpoint()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	}
	data, err := cp.Marshal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefsweep:", err)
		return 1
	}
	if *out != "" {
		if err := store.SaveRotate(store.OS, *out, data); err != nil {
			fmt.Fprintln(os.Stderr, "hefsweep:", err)
			return 1
		}
		st := coord.Status()
		fmt.Fprintf(os.Stderr, "hefsweep: sweep complete: %d tasks in %d ranges; merged checkpoint written to %s\n", st.Tasks, st.Ranges, *out)
	} else {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, "hefsweep:", err)
			return 1
		}
	}

	waitQuiet(ctx, coord)
	tel.SetDraining()
	shutdown(srv)
	return 0
}

// waitQuiet keeps the terminal coordinator answering until its workers go
// quiet (see Coordinator.UntilQuiet): the committing worker stops on the
// Done in its commit response, and every other live worker learns the
// outcome on its next poll or commit instead of retrying against a
// vanished coordinator. A signal cuts the wait short.
func waitQuiet(ctx context.Context, coord *dist.Coordinator) {
	for d := coord.UntilQuiet(); d > 0; d = coord.UntilQuiet() {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return
		}
	}
}

func shutdown(srv *http.Server) {
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hefsweep: shutdown:", err)
	}
}

// validate rejects bad flag combinations before any side effect, exit 2.
func validate(dataDir string, rangeSize int, leaseTTL, straggler time.Duration, maxLeases, failLimit int) error {
	if dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	if rangeSize <= 0 {
		return fmt.Errorf("-range-size must be positive, got %d", rangeSize)
	}
	if leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", leaseTTL)
	}
	if straggler < 0 {
		return fmt.Errorf("-straggler-after must be non-negative, got %v", straggler)
	}
	if maxLeases <= 0 {
		return fmt.Errorf("-max-leases must be positive, got %d", maxLeases)
	}
	if failLimit <= 0 {
		return fmt.Errorf("-fail-limit must be positive, got %d", failLimit)
	}
	return nil
}
