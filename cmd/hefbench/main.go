// Command hefbench is the repository's end-to-end and per-layer benchmark.
// Each run executes one named workload in a fresh process, checks its
// outputs, and prints every metric as a "workload metric value unit" line,
// then one final JSON line:
//
//	{"correct": true, "attempted": 52, "failed": 0, "metrics": {"setup_s": {"value": 0.0004, "unit": "s"}, ...}}
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the run also makes a traced pass, recording
// spans around the benchmark's calls into each layer, and the JSON carries
// the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/hefbench/run.sh --workload search-cold --seed 1 --seconds 20 --trace 0
//	bash cmd/hefbench/run.sh --workload hefd-jobs --seed 7 --seconds 20 --trace 1 --trace-out hefd.json
//	bash cmd/hefbench/run.sh --workload all --seed 1
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hef/internal/hef"
	"hef/internal/memo"
	"hef/internal/uarch"
)

// workloads lists the workload names in the order -workload all runs them.
var workloads = []string{"search-cold", "search-warm", "ssb-figures", "hefd-jobs"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured on the
// untraced pass. An "op" is one operator search, one figure, or one job;
// ops come in kinds (an operator, a figure, a job spec). cpu_ms_per_op is
// the process CPU time of the timed phase over the ops it ran, divided by
// the host factor (calib.go). Wall-clock latency and throughput are printed
// as lines only: on a guest whose host does not always run its vCPUs, they
// measure the host's scheduling as much as the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// layers are the span layers, in report order. "bench" is the benchmark's
// own code between its calls into the program.
var layers = []string{"bench", "core", "hef", "translator", "memo", "cache", "uarch", "experiments", "hefd"}

// perLayer are the metrics of single layers, measured on the traced pass.
var perLayer = func() []metricDef {
	defs := []metricDef{{"trace_overhead", "ratio"}}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	return append(defs,
		metricDef{"translator.calls_per_op", "count"},
		metricDef{"translator.allocs_per_call", "count"},
		metricDef{"memo.hits_per_op", "count"},
		metricDef{"memo.misses_per_op", "count"},
		metricDef{"memo.hit_ratio", "ratio"},
		metricDef{"hef.evals_per_op", "count"},
		metricDef{"hef.batch_forks", "count"},
		metricDef{"uarch.runs_per_op", "count"},
		metricDef{"uarch.minstr_per_op", "Minstr"},
		metricDef{"uarch.minstr_per_s", "Minstr/s"},
		metricDef{"uarch.fast_cycle_share", "ratio"},
		metricDef{"uarch.idle_skip_share", "ratio"},
		metricDef{"uarch.replay_periods_per_op", "count"},
		metricDef{"uarch.skeleton_miss_ratio", "ratio"},
		metricDef{"cache.sim_accesses_per_op", "count"},
		metricDef{"cache.llc_miss_ratio", "ratio"},
		metricDef{"go.gc_cycles_per_op", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.mallocs_per_op", "count"},
		metricDef{"hefd.shed", "count"},
		metricDef{"store.wal_bytes_per_job", "B"},
		metricDef{"store.data_dir_bytes_per_job", "B"},
	)
}()

//go:embed testdata/golden.json
var goldenJSON []byte

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads)+" or all")
	seed := flag.Uint64("seed", 1, "input seed; 1 is the canonical configuration the goldens cover")
	seconds := flag.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the traced pass as Chrome trace-event JSON to this file")
	updateGolden := flag.String("update-golden", "", "merge this run's observed outputs into this golden file instead of failing on a mismatch")
	flag.Parse()

	if err := validate(*workload, *seconds, *trace, *traceOut, *updateGolden); err != nil {
		fmt.Fprintf(os.Stderr, "hefbench: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fatal(err)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, golden, os.Stdout)
	b.traceOut = *traceOut
	b.setupMin = setupMin
	if *updateGolden != "" {
		b.golden = nil
	}
	if err := b.run(defaultParams(*workload, *seed)); err != nil {
		fatal(err)
	}
	if *updateGolden != "" {
		if err := mergeGolden(*updateGolden, b.observed); err != nil {
			fatal(err)
		}
	}
	if err := b.printJSON(); err != nil {
		fatal(err)
	}
	if b.failed > 0 {
		os.Exit(1)
	}
}

func validate(workload string, seconds float64, trace int, traceOut, updateGolden string) error {
	known := workload == "all"
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("-workload %q: want one of %v or all", workload, workloads)
	case !(seconds > 0):
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case traceOut != "" && trace != 1:
		return fmt.Errorf("-trace-out needs -trace 1")
	case workload == "all" && (traceOut != "" || updateGolden != ""):
		return fmt.Errorf("-trace-out and -update-golden name one file; use them with a single workload")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hefbench:", err)
	os.Exit(1)
}

// runAll runs every workload in its own child process, one after another,
// so process-wide state (the skeleton cache, memo totals, max RSS) stays
// per workload.
func runAll(seed uint64, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hefbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "hefbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// params holds every workload's sizing; tests shrink it.
type params struct {
	search searchParams
	ssb    ssbParams
	hefd   hefdParams
}

func defaultParams(workload string, seed uint64) params {
	var p params
	switch workload {
	case "search-cold":
		p.search = coldParams()
	case "search-warm":
		p.search = warmParams()
	case "ssb-figures":
		p.ssb = defaultSSBParams(seed)
	case "hefd-jobs":
		p.hefd = defaultHefdParams()
	}
	return p
}

// bench is one workload run: its configuration, the checks made so far,
// and the metrics emitted.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	setupMin time.Duration
	trace    bool
	traceOut string
	out      io.Writer

	mu sync.Mutex
	// golden maps an output key to its expected value; a key this run
	// observes twice must also read the same both times.
	golden    map[string]string
	observed  map[string]string
	attempted int
	failed    int
	reported  int

	metrics map[string]float64
}

func newBench(workload string, seed uint64, budget time.Duration, trace bool, golden map[string]string, out io.Writer) *bench {
	return &bench{workload: workload, seed: seed, budget: budget, trace: trace, out: out,
		golden: golden, observed: map[string]string{}, metrics: map[string]float64{}}
}

// rng returns the workload's input generator for one purpose. Every
// stream is a pure function of the seed.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.seed, stream))
}

func (b *bench) run(p params) error {
	switch b.workload {
	case "search-cold":
		return runSearch(b, p.search, true)
	case "search-warm":
		return runSearch(b, p.search, false)
	case "ssb-figures":
		return runSSB(b, p.ssb)
	case "hefd-jobs":
		return runHefd(b, p.hefd)
	}
	return fmt.Errorf("unknown workload %q", b.workload)
}

// check compares one observed output against its golden and against every
// earlier observation of the same key in this run. It reports whether both
// agree.
func (b *bench) check(key, got string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if want, ok := b.golden[key]; ok && want != got {
		b.reportLocked("%s: got %s, golden %s", key, got, want)
		return false
	}
	if prev, ok := b.observed[key]; ok && prev != got {
		b.reportLocked("%s: got %s, earlier in this run %s", key, got, prev)
		return false
	}
	b.observed[key] = got
	return true
}

// op counts one attempted operation and whether it succeeded.
func (b *bench) op(ok bool) {
	b.mu.Lock()
	b.attempted++
	if !ok {
		b.failed++
	}
	b.mu.Unlock()
}

// failf reports an operation failure on standard error.
func (b *bench) failf(format string, args ...any) {
	b.mu.Lock()
	b.reportLocked(format, args...)
	b.mu.Unlock()
}

func (b *bench) reportLocked(format string, args ...any) {
	// The first failures say what broke; a flood adds nothing.
	if b.reported++; b.reported <= 20 {
		fmt.Fprintf(os.Stderr, "hefbench: %s: "+format+"\n", append([]any{b.workload}, args...)...)
	}
}

// line prints one metric line.
func (b *bench) line(name string, v float64, unit string) {
	fmt.Fprintf(b.out, "%s %s %s %s\n", b.workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// set prints one metric line and records the metric for the JSON line.
func (b *bench) set(name string, v float64, unit string) {
	b.line(name, v, unit)
	b.metrics[name] = v
}

// printJSON prints the final result line. It fails when a metric the
// benchmark defines was not measured.
func (b *bench) printJSON() error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %g", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "%s\n", data)
	return err
}

// setupMin is the least time a run's setups take together: a short setup
// is repeated until the host meter has sampled the host about twenty times.
const setupMin = 2 * time.Second

// timeSetups runs setup at least reps times and for at least b.setupMin.
// It returns, in seconds, each rep's process CPU time without the host
// meter's, divided by the host factor measured while they ran. The state
// of the last rep is the one the workload keeps.
func (b *bench) timeSetups(reps int, setup func() error) ([]float64, error) {
	m := startHostMeter()
	var out []float64
	for start := time.Now(); len(out) < reps || time.Since(start) < b.setupMin; {
		c, mc := processCPU(), m.cpu()
		if err := setup(); err != nil {
			m.finish()
			return nil, err
		}
		out = append(out, (processCPU() - c - (m.cpu() - mc)).Seconds())
	}
	host := m.finish()
	for i := range out {
		out[i] /= host
	}
	b.line("setup_host_factor", host, "ratio")
	return out, nil
}

// counters snapshots the process-wide counters a pass reads deltas of.
type counters struct {
	at                 time.Time
	cpu                time.Duration
	mem                runtime.MemStats
	sim                uarch.SimTotals
	memoHits, memoMiss uint64
	forks              uint64
}

func readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.sim = uarch.Totals()
	c.memoHits, c.memoMiss = memo.Totals()
	c.forks = hef.BatchForks()
	c.cpu = processCPU()
	c.at = time.Now()
	return c
}

// processCPU is the user plus system CPU time the process has used, on all
// its threads. Time the process waited for a CPU is not in it, nor, in a
// guest that accounts steal time, time the host took its vCPU away.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is the outcome of one timed pass (untraced or traced).
type pass struct {
	ops int
	// lat holds each op kind's latency samples in milliseconds, and cpu its
	// CPU time samples where ops run one at a time (searches and figures).
	lat, cpu map[string][]float64
	// fastest marks deterministic work — searches and figures — whose kinds'
	// latencies are estimated by their fastest sample: interference from
	// other processes can only add time to a fixed computation. A hefd job's
	// latency is a distribution (arrivals, queueing), estimated by its median.
	// CPU times are estimated by their median everywhere.
	fastest bool
	// opsPerSec is the workload's throughput; unitS is the host seconds of
	// its fixed unit of work (a round, or one job in the closed loop) that
	// trace_overhead compares.
	opsPerSec float64
	unitS     float64
	rounds    int
	from, to  counters
	// Layer counts only the benchmark can see: the search evaluator's
	// simulated cache traffic and serial translation allocations.
	simAccesses, llcHits, llcMisses uint64
	allocsPerTranslate              float64
	// hefd-jobs only: evaluations read from the job reports, admission
	// sheds, and store growth per job.
	evals                int
	shed                 int
	walPerJob, dirPerJob float64

	// meter samples the host's speed while the pass runs; host is the
	// factor it found.
	meter *hostMeter
	host  float64
}

// startPass starts a timed pass.
func startPass() *pass {
	return &pass{meter: startHostMeter(), from: readCounters()}
}

// stop ends a timed pass.
func (p *pass) stop() {
	p.to = readCounters()
	p.host = p.meter.finish()
}

// emitEndToEnd emits the end-to-end metrics of the untraced pass.
func (b *bench) emitEndToEnd(setups []float64, p *pass) {
	b.set("setup_s", median(setups), "s")
	b.line("setup_reps", float64(len(setups)), "count")
	host := p.host
	cpu := float64(p.to.cpu-p.from.cpu-p.meter.cpu()) / 1e6 / float64(p.ops)
	for i, k := range kernels {
		b.line("host_ms."+k.name, median(p.meter.samples[i]), "ms")
	}
	b.line("host_factor", host, "ratio")
	b.line("host_samples", float64(len(p.meter.samples[0])), "count")
	b.line("cpu_ms_per_op_raw", cpu, "ms")
	b.set("cpu_ms_per_op", cpu/host, "ms")
	if len(p.cpu) > 0 {
		// The per-kind lines show which op moved.
		b.byKind("cpu_ms", p.cpu, func(xs []float64) float64 { return median(xs) / host })
	}
	var all []float64
	for _, xs := range p.lat {
		all = append(all, xs...)
	}
	b.line("latency_ms", b.byKind("latency_ms", p.lat, p.kindLatency), "ms")
	b.line("latency_p50_ms", median(all), "ms")
	if q, v, ok := tail(all); ok {
		b.line(fmt.Sprintf("latency_p%g_ms", q), v, "ms")
	}
	b.line("latency_samples", float64(len(all)), "count")
	b.line("ops_per_s", p.opsPerSec, "1/s")
	b.set("alloc_mb_per_op", float64(p.to.mem.TotalAlloc-p.from.mem.TotalAlloc)/float64(p.ops)/1e6, "MB")
	b.set("max_rss_mb", maxRSSMB(), "MB")
}

// byKind prints each op kind's estimate of its samples as name.<kind> and
// returns the geometric mean of the estimates.
func (b *bench) byKind(name string, samples map[string][]float64, estimate func([]float64) float64) float64 {
	kinds := make([]string, 0, len(samples))
	for k := range samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	logSum := 0.0
	for _, k := range kinds {
		m := estimate(samples[k])
		b.line(name+"."+k, m, "ms")
		logSum += math.Log(m)
	}
	return math.Exp(logSum / float64(len(kinds)))
}

// emitPerLayer emits the per-layer metrics of the traced pass.
func (b *bench) emitPerLayer(plain, traced *pass, spans []span) {
	b.set("trace_overhead", traced.unitS/plain.unitS-1, "ratio")
	at := attribute(spans)
	lt := layerTimes(spans, at)
	var busy time.Duration
	for _, t := range lt {
		busy += t.Self
	}
	for _, l := range layers {
		pct := 0.0
		if busy > 0 {
			pct = 100 * float64(lt[l].Self) / float64(busy)
		}
		b.set(l+".self_pct", pct, "%")
		b.line(l+".self_s", lt[l].Self.Seconds(), "s")
		b.line(l+".wait_s", lt[l].Wait.Seconds(), "s")
	}
	b.line("trace.identity_error", identityError(spans, at), "ratio")
	b.line("trace.spans", float64(len(spans)), "count")

	ops := float64(traced.ops)
	count := func(layer, name string) float64 {
		n := 0
		for _, s := range spans {
			if s.Layer == layer && (name == "" || s.Name == name) {
				n++
			}
		}
		return float64(n)
	}
	b.set("translator.calls_per_op", count("translator", "")/ops, "count")
	b.set("translator.allocs_per_call", traced.allocsPerTranslate, "count")
	hits := float64(traced.to.memoHits - traced.from.memoHits)
	miss := float64(traced.to.memoMiss - traced.from.memoMiss)
	b.set("memo.hits_per_op", hits/ops, "count")
	b.set("memo.misses_per_op", miss/ops, "count")
	b.set("memo.hit_ratio", ratio(hits, hits+miss), "ratio")
	evals := count("hef", "Evaluate") + float64(traced.evals)
	b.set("hef.evals_per_op", evals/ops, "count")
	b.set("hef.batch_forks", float64(traced.to.forks-traced.from.forks), "count")

	s0, s1 := traced.from.sim, traced.to.sim
	instr := float64(s1.Instructions - s0.Instructions)
	fast := float64(s1.FastCycles - s0.FastCycles)
	slow := float64(s1.SlowCycles - s0.SlowCycles)
	b.set("uarch.runs_per_op", float64(s1.Runs-s0.Runs)/ops, "count")
	b.set("uarch.minstr_per_op", instr/1e6/ops, "Minstr")
	b.set("uarch.minstr_per_s", ratio(instr/1e6, lt["uarch"].Self.Seconds()), "Minstr/s")
	b.set("uarch.fast_cycle_share", ratio(fast, fast+slow), "ratio")
	b.set("uarch.idle_skip_share", ratio(float64(s1.IdleSkipped-s0.IdleSkipped), slow), "ratio")
	b.set("uarch.replay_periods_per_op", float64(s1.ReplayPeriods-s0.ReplayPeriods)/ops, "count")
	// Over the whole process: the untraced pass already built every
	// skeleton the traced pass looks up.
	b.set("uarch.skeleton_miss_ratio", ratio(float64(s1.SkeletonMisses), float64(s1.SkeletonMisses+s1.SkeletonHits)), "ratio")
	b.set("cache.sim_accesses_per_op", float64(traced.simAccesses)/ops, "count")
	b.set("cache.llc_miss_ratio", ratio(float64(traced.llcMisses), float64(traced.llcHits+traced.llcMisses)), "ratio")

	m0, m1 := &traced.from.mem, &traced.to.mem
	b.set("go.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/ops, "count")
	b.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	b.set("go.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "count")
	b.set("hefd.shed", float64(traced.shed), "count")
	b.set("store.wal_bytes_per_job", traced.walPerJob, "B")
	b.set("store.data_dir_bytes_per_job", traced.dirPerJob, "B")

	if b.traceOut != "" {
		if err := writeChromeTrace(b.traceOut, spans); err != nil {
			b.failf("writing %s: %v", b.traceOut, err)
		}
	}
}

// kindLatency is one op kind's latency estimate from its samples.
func (p *pass) kindLatency(xs []float64) float64 {
	if p.fastest {
		return slices.Min(xs)
	}
	return median(xs)
}

// finishFastest sets a deterministic pass's throughput from its kinds'
// fastest samples: a round in which every op ran at its fastest.
func (p *pass) finishFastest() {
	p.fastest = true
	p.unitS = 0
	for _, xs := range p.lat {
		p.unitS += p.kindLatency(xs) / 1e3
	}
	p.opsPerSec = float64(len(p.lat)) / p.unitS
}

// addLat records one op's latency under its kind.
func (p *pass) addLat(kind string, d time.Duration) {
	if p.lat == nil {
		p.lat = map[string][]float64{}
	}
	p.lat[kind] = append(p.lat[kind], float64(d)/1e6)
}

// addOp records the latency and CPU time of one op that ran alone.
func (p *pass) addOp(kind string, wall, cpu time.Duration) {
	p.addLat(kind, wall)
	if p.cpu == nil {
		p.cpu = map[string][]float64{}
	}
	p.cpu[kind] = append(p.cpu[kind], float64(cpu)/1e6)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail is the highest percentile with at least ten samples beyond it.
func tail(xs []float64) (q, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return math.Floor(1000*float64(n-10)/float64(n)) / 10, s[n-11], true
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func parseGolden(data []byte) (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return m, nil
}

// mergeGolden adds observed to the golden file at path, keeping its other
// keys.
func mergeGolden(path string, observed map[string]string) error {
	m := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if m, err = parseGolden(data); err != nil {
			return err
		}
	}
	for k, v := range observed {
		m[k] = v
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
