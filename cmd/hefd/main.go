// Command hefd serves HEF's offline optimization as a long-lived,
// fault-tolerant daemon: an HTTP/JSON API in front of a supervised,
// multi-tenant job manager.
//
//	POST   /v1/jobs             submit a job (operators + CPU model); 202 + job view
//	GET    /v1/jobs             list jobs (?tenant= filters)
//	GET    /v1/jobs/{id}        job status with operator-level progress
//	GET    /v1/jobs/{id}/report final obs.RunReport, byte-identical across crashes
//	DELETE /v1/jobs/{id}        cancel
//	GET    /metrics, /healthz, /readyz, /status   telemetry on the same listener
//
// Every accepted job is persisted write-ahead under -data-dir before the
// 202, and its sweep checkpoints after every operator: kill -9 the daemon,
// restart it on the same directory, and accepted jobs resume and finish
// with reports byte-identical to an uninterrupted run. Overload sheds with
// 429 + Retry-After (bounded queue, per-tenant token buckets) instead of
// queueing unboundedly; SIGTERM drains gracefully (readiness flips,
// running jobs checkpoint and park).
//
// Usage:
//
//	hefd -data-dir /var/lib/hefd
//	hefd -addr :8080 -data-dir d -memo-dir m -workers 2 -quota-rate 5 -quota-burst 10
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
	"syscall"
	"time"

	"hef/internal/hefd"
	"hef/internal/sched"
	"hef/internal/telemetry"
	"hef/internal/telemetry/mount"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", `listen address (":0" picks a free port, logged to stderr)`)
	dataDir := flag.String("data-dir", "", "directory for the write-ahead job log and sweep checkpoints (required)")
	memoDir := flag.String("memo-dir", "", "directory of the shared durable measurement memo store (optional)")
	workers := flag.Int("workers", 2, "jobs run concurrently")
	queue := flag.Int("queue", 64, "bound on accepted-but-unfinished jobs; beyond it submissions shed with 429")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant sustained submission rate in jobs/second (0 disables quotas)")
	quotaBurst := flag.Float64("quota-burst", 10, "per-tenant submission burst capacity")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive job failures that open a tenant's circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open tenant breaker sheds before admitting a probe job")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM grace: how long running jobs get to checkpoint and park")
	heartbeat := flag.Duration("heartbeat", 0, "emit a structured progress line to stderr at this interval (0 disables)")
	retainAge := flag.Duration("retain-age", 0, "expire terminal jobs this long after they finish (0 retains forever)")
	retainCount := flag.Int("retain-count", 0, "keep at most this many terminal jobs per tenant, newest first (0 retains all)")
	walMaxBytes := flag.Int64("wal-max-bytes", 0, "compact the job log in place once it grows past this many bytes (0 compacts only at startup under retention)")
	authKeys := flag.String("auth-keys", "", "API key file (\"<key> <tenant> [rate=R] [burst=B]\" per line); SIGHUP reloads it (empty disables auth)")
	flag.Parse()
	heartbeatSet, retainAgeSet, retainCountSet, walMaxBytesSet := false, false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "heartbeat":
			heartbeatSet = true
		case "retain-age":
			retainAgeSet = true
		case "retain-count":
			retainCountSet = true
		case "wal-max-bytes":
			walMaxBytesSet = true
		}
	})

	if err := validate(*dataDir, *workers, *queue, *quotaRate, *quotaBurst, *breakerThreshold, *breakerCooldown, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "hefd: %v\n\n", err)
		flag.Usage()
		return 2
	}
	// Retention zero means "off", so an explicit zero or negative value is a
	// configuration mistake, not a request — same convention as -heartbeat.
	if retainAgeSet && *retainAge <= 0 {
		fmt.Fprintf(os.Stderr, "hefd: -retain-age must be positive when set, got %v\n\n", *retainAge)
		flag.Usage()
		return 2
	}
	if retainCountSet && *retainCount <= 0 {
		fmt.Fprintf(os.Stderr, "hefd: -retain-count must be positive when set, got %d\n\n", *retainCount)
		flag.Usage()
		return 2
	}
	if walMaxBytesSet && *walMaxBytes <= 0 {
		fmt.Fprintf(os.Stderr, "hefd: -wal-max-bytes must be positive when set, got %d\n\n", *walMaxBytes)
		flag.Usage()
		return 2
	}
	if *authKeys != "" {
		// Loading here (and again inside New) front-loads key-file mistakes
		// into the exit-2 flag contract: a bad path or malformed line is
		// caught before the daemon touches its data directory.
		if _, err := hefd.LoadKeyring(nil, *authKeys); err != nil {
			fmt.Fprintf(os.Stderr, "hefd: -auth-keys: %v\n\n", err)
			flag.Usage()
			return 2
		}
	}
	if err := telemetry.ValidateFlags("", heartbeatSet, *heartbeat); err != nil {
		fmt.Fprintf(os.Stderr, "hefd: %v\n\n", err)
		flag.Usage()
		return 2
	}

	// The telemetry session runs embedded: its endpoints mount on the API
	// listener instead of a second port, and readiness drives the drain.
	tel, err := mount.Start(mount.Options{Tool: "hefd", Embedded: true, Heartbeat: *heartbeat})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefd:", err)
		return 1
	}
	defer tel.Close()

	m, err := hefd.New(hefd.Config{
		DataDir:      *dataDir,
		MemoDir:      *memoDir,
		Workers:      *workers,
		QueueSize:    *queue,
		Quota:        hefd.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
		Breaker:      sched.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown},
		Retention:    hefd.RetentionConfig{Age: *retainAge, Count: *retainCount},
		WALMaxBytes:  *walMaxBytes,
		AuthKeys:     *authKeys,
		SweepMetrics: tel.SweepMetrics(),
		Tracer:       tel.Tracer(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefd:", err)
		return 1
	}
	if st := m.MemoStore(); st != nil {
		tel.ObserveStore(st)
	}
	if reg := tel.Registry(); reg != nil {
		reg.GaugeFunc(telemetry.MetricHefdQueued, "jobs accepted and waiting to run", func() float64 { return float64(m.Counts().Queued) })
		reg.GaugeFunc(telemetry.MetricHefdRunning, "jobs currently running", func() float64 { return float64(m.Counts().Running) })
		reg.GaugeFunc(telemetry.MetricHefdDone, "jobs finished successfully", func() float64 { return float64(m.Counts().Done) })
		reg.GaugeFunc(telemetry.MetricHefdFailed, "jobs failed terminally", func() float64 { return float64(m.Counts().Failed) })
		reg.GaugeFunc(telemetry.MetricHefdAccepted, "jobs admitted since start", func() float64 { return float64(m.Counts().Accepted) })
		reg.GaugeFunc(telemetry.MetricHefdShed, "submissions shed by admission control since start", func() float64 { return float64(m.Counts().Shed) })
		reg.GaugeFunc(telemetry.MetricHefdRecovered, "jobs re-queued from the log at start", func() float64 { return float64(m.Counts().Recovered) })
		reg.GaugeFunc(telemetry.MetricHefdExpired, "terminal jobs expired by the retention sweep since start", func() float64 { return float64(m.Counts().Expired) })
		reg.GaugeFunc(telemetry.MetricHefdCompactions, "job log compactions since start", func() float64 { return float64(m.Counts().Compactions) })
		reg.GaugeFunc(telemetry.MetricHefdWALBytes, "job log size on disk in bytes", func() float64 { return float64(m.WALSize()) })
		reg.GaugeFunc(telemetry.MetricHefdAuthDenied, "requests refused with 401/403 since start", func() float64 { return float64(m.Counts().AuthDenied) })
		reg.GaugeFunc(telemetry.MetricHefdKeyReloads, "successful SIGHUP key file reloads since start", func() float64 { return float64(m.Counts().KeyReloads) })
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefd:", err)
		m.Close()
		return 1
	}
	srv := telemetry.NewHTTPServer(hefd.NewHandler(m, tel.Handler()))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	tel.SetReady()
	// The port line is machine-parseable on purpose: tests and scripts bind
	// ":0" and scrape the actual address from here. It follows SetReady, so
	// a client that has the address never sees /readyz still starting.
	fmt.Fprintf(os.Stderr, "hefd: serving on %s\n", ln.Addr())

	// SIGHUP re-reads the key file in place: in-flight jobs keep running,
	// only the keyring pointer swaps. A broken edit keeps the old ring.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	hupDone := make(chan struct{})
	go func() {
		defer close(hupDone)
		for range hup {
			_ = m.ReloadKeys()
		}
	}()
	defer func() { signal.Stop(hup); close(hup); <-hupDone }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "hefd:", err)
		m.Close()
		return 1
	}

	// Graceful drain: flip readiness so load balancers stop routing here,
	// refuse new submissions, cancel running jobs so their sweeps checkpoint
	// and park, then stop the HTTP server and seal the data directory.
	fmt.Fprintln(os.Stderr, "hefd: draining")
	tel.SetDraining()
	m.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hefd: shutdown:", err)
	}
	if err := m.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hefd: close:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "hefd: drained; parked jobs resume at next start")
	return 0
}

// validate rejects bad flag combinations before any side effect, exit 2.
func validate(dataDir string, workers, queue int, quotaRate, quotaBurst float64, breakerThreshold int, breakerCooldown, drainTimeout time.Duration) error {
	if dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	if workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	if queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", queue)
	}
	if quotaRate < 0 {
		return fmt.Errorf("-quota-rate must be non-negative, got %g", quotaRate)
	}
	if quotaBurst < 0 {
		return fmt.Errorf("-quota-burst must be non-negative, got %g", quotaBurst)
	}
	if breakerThreshold < 0 {
		return fmt.Errorf("-breaker-threshold must be non-negative, got %d", breakerThreshold)
	}
	if breakerCooldown < 0 {
		return fmt.Errorf("-breaker-cooldown must be non-negative, got %v", breakerCooldown)
	}
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", drainTimeout)
	}
	return nil
}
