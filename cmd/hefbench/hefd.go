package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hef/internal/experiments"
	"hef/internal/hefd"
	"hef/internal/obs"
)

// hefdParams sizes the hefd-jobs workload.
type hefdParams struct {
	specs []hefd.JobSpec
	// workers is the daemon's job concurrency; clients the closed-loop
	// callers, each waiting for its job's report before the next.
	workers, clients int
	// rate is the open loop's Poisson arrival rate (jobs/s), about a third
	// of the closed-loop capacity on the 2-core reference machine.
	rate float64
	// closedShare is the closed loop's share of the timed phase; the open
	// loop runs the rest.
	closedShare float64
	poll        time.Duration
	// maxBacklog fails the run when more jobs than this are still in
	// flight when the open loop stops sending.
	maxBacklog int
	setupReps  int
}

// defaultHefdParams: the 12 specs are the six built-ins at two test sizes
// with a 12-evaluation budget. Setup primes every spec, so the timed jobs
// are memo-warm.
func defaultHefdParams() hefdParams {
	var specs []hefd.JobSpec
	for _, elems := range []int64{1024, 2048} {
		for _, op := range experiments.OpNames() {
			specs = append(specs, hefd.JobSpec{Ops: []string{op}, Elems: elems, Budget: 12})
		}
	}
	return hefdParams{specs: specs, workers: 2, clients: 2, rate: 40, closedShare: 0.4,
		poll: 2 * time.Millisecond, maxBacklog: 40, setupReps: 5}
}

// specLabel names a spec's op kind in the latency lines.
func specLabel(s hefd.JobSpec) string {
	return fmt.Sprintf("%s-%d", strings.Join(s.Ops, "+"), s.Elems)
}

// specKey is the golden key of a spec's report.
func specKey(s hefd.JobSpec) string {
	return fmt.Sprintf("hefd ops=%s elems=%d budget=%d report", strings.Join(s.Ops, ","), s.Elems, s.Budget)
}

// rng streams of the load generator.
const (
	openStream   = 2
	closedStream = 3 // + client index
)

func runHefd(b *bench, p hefdParams) error {
	var rigs []*hefdRig
	defer func() {
		for _, r := range rigs {
			if err := r.close(); err != nil {
				b.failf("closing the daemon: %v", err)
			}
		}
	}()
	setups, err := b.timeSetups(p.setupReps, func() error {
		r, err := openHefdRig(p)
		if err != nil {
			return err
		}
		rigs = append(rigs, r)
		return r.prime(b, p)
	})
	if err != nil {
		return err
	}
	// Only the last setup serves the timed phase.
	for _, r := range rigs[:len(rigs)-1] {
		if err := r.close(); err != nil {
			return fmt.Errorf("closing a setup daemon: %w", err)
		}
	}
	rig := rigs[len(rigs)-1]
	rigs = rigs[len(rigs)-1:]

	budget := b.budget
	if b.trace {
		budget /= 2
	}
	plain, log := rig.pass(b, p, budget, nil)
	b.emitEndToEnd(setups, plain)
	log.emit(b)
	if !b.trace {
		return nil
	}
	rec := newRecorder()
	traced, _ := rig.pass(b, p, budget, rec)
	b.emitPerLayer(plain, traced, rec.snapshot())
	return nil
}

// hefdRig is one in-process daemon behind an HTTP test server, with its
// own data directory (real WAL appends, fsyncs and checkpoints).
type hefdRig struct {
	dir    string
	m      *hefd.Manager
	srv    *httptest.Server
	client *http.Client
	poll   time.Duration

	mu sync.Mutex
	// tested is each spec's evaluation count, read from its first report;
	// evals sums it over every job recorded.
	tested map[string]int
	evals  int
}

func openHefdRig(p hefdParams) (*hefdRig, error) {
	dir, err := os.MkdirTemp("", "hefbench-hefd-")
	if err != nil {
		return nil, err
	}
	m, err := hefd.New(hefd.Config{DataDir: dir, Workers: p.workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &hefdRig{
		dir: dir, m: m, srv: httptest.NewServer(hefd.NewHandler(m, nil)),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}},
		poll:   p.poll, tested: map[string]int{},
	}, nil
}

// close stops the server (waiting for in-flight requests), drains the
// daemon and removes its data directory.
func (r *hefdRig) close() error {
	r.srv.Close()
	r.client.CloseIdleConnections()
	err := r.m.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// prime submits every spec once, concurrently, and waits for the reports.
func (r *hefdRig) prime(b *bench, p hefdParams) error {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, s := range p.specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := r.runJob(context.Background(), scope{}, s)
			if !r.record(b, s, o) {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("priming: %d of %d jobs failed", n, len(p.specs))
	}
	return nil
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	submit, wait, fetch time.Duration
	report              []byte
	err                 error
}

// runJob submits a spec, polls the job until it is done, and fetches its
// report.
func (r *hefdRig) runJob(ctx context.Context, sc scope, spec hefd.JobSpec) (o jobOutcome) {
	jsc, end := sc.span("bench", "job")
	defer end()
	body, err := json.Marshal(spec)
	if err != nil {
		return jobOutcome{err: err}
	}
	t0 := time.Now()
	data, err := r.call(ctx, jsc, "POST /v1/jobs", http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return jobOutcome{err: err}
	}
	var view hefd.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		return jobOutcome{err: err}
	}
	t1 := time.Now()
	o.submit = t1.Sub(t0)
	timer := time.NewTimer(r.poll)
	defer timer.Stop()
	for view.State != hefd.StateDone {
		if view.State.Terminal() {
			return jobOutcome{err: fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)}
		}
		select {
		case <-ctx.Done():
			return jobOutcome{err: fmt.Errorf("job %s: %w", view.ID, ctx.Err())}
		case <-timer.C:
		}
		timer.Reset(r.poll)
		if data, err = r.call(ctx, jsc, "GET /v1/jobs/{id}", http.MethodGet, "/v1/jobs/"+view.ID, nil, http.StatusOK); err == nil {
			err = json.Unmarshal(data, &view)
		}
		if err != nil {
			return jobOutcome{err: err}
		}
	}
	t2 := time.Now()
	o.wait = t2.Sub(t1)
	if o.report, o.err = r.call(ctx, jsc, "GET /v1/jobs/{id}/report", http.MethodGet, "/v1/jobs/"+view.ID+"/report", nil, http.StatusOK); o.err != nil {
		return o
	}
	o.fetch = time.Since(t2)
	return o
}

// call makes one API request inside a span and returns the body of a
// response with the wanted status.
func (r *hefdRig) call(ctx context.Context, sc scope, name, method, path string, body []byte, want int) ([]byte, error) {
	_, end := sc.span("hefd", name)
	defer end()
	req, err := http.NewRequestWithContext(ctx, method, r.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// record checks one job's report and counts the job. Every report of a
// spec must be byte-identical to the first and to its golden.
func (r *hefdRig) record(b *bench, spec hefd.JobSpec, o jobOutcome) bool {
	key := specKey(spec)
	if o.err != nil {
		b.failf("%s: %v", key, o.err)
		b.op(false)
		return false
	}
	ok := b.check(key, fmt.Sprintf("%x", sha256.Sum256(o.report)))
	b.op(ok)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.tested[key]; !seen && ok {
		var rep obs.RunReport
		if err := json.Unmarshal(o.report, &rep); err == nil && rep.Search != nil {
			r.tested[key] = rep.Search.Tested
		}
	}
	r.evals += r.tested[key]
	return ok
}

// never is the time of a job that failed or was refused: it misses every
// latency limit.
const never = math.MaxFloat64

// jobLog collects the open loop's per-job timings, in milliseconds.
type jobLog struct {
	mu                  sync.Mutex
	jobs                int
	latency             map[string][]float64 // by spec
	late                []float64
	submit, wait, fetch []float64
	backlog             int
}

func (l *jobLog) add(s hefd.JobSpec, o jobOutcome, ok bool, latency, late time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	k := specLabel(s)
	if !ok {
		l.latency[k] = append(l.latency[k], never)
		return
	}
	l.latency[k] = append(l.latency[k], ms(latency))
	l.late = append(l.late, ms(late))
	l.submit = append(l.submit, ms(o.submit))
	l.wait = append(l.wait, ms(o.wait))
	l.fetch = append(l.fetch, ms(o.fetch))
}

// emit prints the open loop's per-call latencies and the load generator's
// own lateness, which checks that the run kept its schedule.
func (l *jobLog) emit(b *bench) {
	b.line("hefd.submit_p50_ms", median(l.submit), "ms")
	if q, v, ok := tail(l.submit); ok {
		b.line(fmt.Sprintf("hefd.submit_p%g_ms", q), v, "ms")
	}
	b.line("hefd.wait_p50_ms", median(l.wait), "ms")
	b.line("hefd.report_p50_ms", median(l.fetch), "ms")
	if q, v, ok := tail(l.late); ok {
		b.line(fmt.Sprintf("loadgen.late_p%g_ms", q), v, "ms")
	}
	b.line("loadgen.late_max_ms", percentile(l.late, 100), "ms")
	b.line("loadgen.backlog", float64(l.backlog), "count")
}

// pass runs the closed loop, then the open loop, within budget.
func (r *hefdRig) pass(b *bench, p hefdParams, budget time.Duration, rec *recorder) (*pass, *jobLog) {
	out := startPass()
	shed0, wal0, dir0 := r.m.Counts().Shed, r.m.WALSize(), dirSize(r.dir)
	r.mu.Lock()
	evals0 := r.evals
	r.mu.Unlock()

	// Closed loop: each client starts its next job when its last report
	// arrives, so the clients over the median job time is the daemon's
	// capacity. The median keeps bursts of interference from other
	// processes out of it.
	closedDur := time.Duration(float64(budget) * p.closedShare)
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var closed []float64
	for c := 0; c < p.clients; c++ {
		rng := b.rng(closedStream + uint64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Since(start) < closedDur; n++ {
				s := p.specs[rng.IntN(len(p.specs))]
				t := time.Now()
				o := r.runJob(context.Background(), rec.root(fmt.Sprintf("closed %d/%d", c, n)), s)
				d := time.Since(t).Seconds()
				if !r.record(b, s, o) {
					d = never
				}
				mu.Lock()
				closed = append(closed, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	log := r.openLoop(b, p, budget-closedDur, rec)
	out.stop()
	out.ops = len(closed) + log.jobs
	out.lat = log.latency
	out.unitS = median(closed) / float64(p.clients)
	out.opsPerSec = 1 / out.unitS
	out.shed = r.m.Counts().Shed - shed0
	out.walPerJob = ratio(float64(r.m.WALSize()-wal0), float64(out.ops))
	out.dirPerJob = ratio(float64(dirSize(r.dir)-dir0), float64(out.ops))
	r.mu.Lock()
	out.evals = r.evals - evals0
	r.mu.Unlock()
	return out, log
}

// drainTimeout bounds the wait for the open loop's last jobs.
const drainTimeout = 30 * time.Second

// openLoop sends seeded Poisson arrivals for dur regardless of
// completions, and times each job from when it was due.
func (r *hefdRig) openLoop(b *bench, p hefdParams, dur time.Duration, rec *recorder) *jobLog {
	rng := b.rng(openStream)
	log := &jobLog{latency: map[string][]float64{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for n, t := 0, rng.ExpFloat64()/p.rate; t < dur.Seconds(); n, t = n+1, t+rng.ExpFloat64()/p.rate {
		due := start.Add(time.Duration(t * float64(time.Second)))
		s := p.specs[rng.IntN(len(p.specs))]
		time.Sleep(time.Until(due))
		wg.Add(1)
		inflight.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			late := time.Since(due)
			o := r.runJob(ctx, rec.root(fmt.Sprintf("open %d", n)), s)
			latency := time.Since(due)
			log.add(s, o, r.record(b, s, o), latency, late)
		}()
	}
	time.Sleep(time.Until(start.Add(dur)))
	log.backlog = int(inflight.Load())
	if log.backlog > p.maxBacklog {
		b.failf("open loop ended with %d jobs in flight (limit %d)", log.backlog, p.maxBacklog)
		b.op(false)
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel() // the remaining jobs fail with the context error
		<-drained
	}
	return log
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
