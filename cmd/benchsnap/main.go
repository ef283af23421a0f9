// Command benchsnap produces BENCH_4.json: a machine-readable performance
// snapshot of the simulator hot paths with allocations per op and retired
// Minstr/s as first-class fields (the go-test JSON streams of BENCH_2/3
// bury them inside benchmark output lines). With -check it compares the
// fresh measurements against a committed baseline and exits non-zero when
// simulation throughput regressed beyond the tolerance — the CI perf-smoke
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"hef/internal/core"
	"hef/internal/experiments"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Snapshot is the BENCH_4.json document.
type Snapshot struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurements. MinstrPerSec is retired simulated
// instructions per wall-clock second in millions, computed from the
// process-wide instruction total — the throughput figure the regression
// gate compares. HostSpeed is the spin-kernel rate (rounds/s) measured in
// the same trial; the gate divides the two snapshots' Minstr/s ratio by
// their HostSpeed ratio, so a slow or noisy host cancels out and only a
// code regression moves the gated figure.
type Bench struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	MinstrPerSec float64 `json:"minstr_per_sec"`
	HostSpeed    float64 `json:"host_speed"`
	MemSpeed     float64 `json:"mem_speed"`
}

func main() {
	out := flag.String("out", "BENCH_4.json", "write the snapshot to this file")
	check := flag.String("check", "", "compare against this baseline snapshot and fail on throughput regression")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional Minstr/s regression vs the baseline")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchsnap: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	snap, trials, err := measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	for _, b := range snap.Benchmarks {
		fmt.Printf("%-24s %12.0f ns/op %8d allocs/op %10.1f Minstr/s\n",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.MinstrPerSec)
	}

	if *check != "" {
		if err := compare(snap, trials, *check, *tol); err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		fmt.Printf("throughput within %.0f%% of %s\n", *tol*100, *check)
	}
}

// measure runs the snapshot's benchmarks. Each entry wraps its workload in
// testing.Benchmark and reads the retired-instruction delta off the
// process-wide simulator totals, so Minstr/s needs no per-benchmark
// bookkeeping. Alongside the snapshot (whose entries are median trials) it
// returns every benchmark's full trial set for the regression gate.
func measure() (*Snapshot, map[string][]Bench, error) {
	cpu, err := isa.ByName("silver")
	if err != nil {
		return nil, nil, err
	}
	snap := &Snapshot{Schema: "hef/bench4", GoVersion: runtime.Version(), CPUModel: cpu.Name}
	trials := make(map[string][]Bench)

	// The simulator throughput set: the hybrid form of each operator on the
	// default engine (period replay on) plus the murmur kernel with replay
	// off — the cycle-by-cycle walk replay is quoted against. Idle-cycle
	// skipping is on in both.
	node := translator.Node{V: 1, S: 1, P: 2}
	simBench := func(name, op string, fastPath bool, iters int64) error {
		tmpl, err := experiments.OpTemplate(op)
		if err != nil {
			return err
		}
		tout, err := translator.Translate(tmpl, node, translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
		if err != nil {
			return err
		}
		sim := uarch.NewSim(cpu)
		sim.SetFastPath(fastPath)
		var res uarch.Result
		// A dozen warm-up runs, matching the engine alloc test: the reused
		// arenas (ring digests, replay recordings, journal save-sets) grow
		// to a high-water mark over the first few runs before allocs/op
		// settles at zero.
		for w := 0; w < 12; w++ {
			if err := sim.RunInto(&res, tout.Program, iters); err != nil {
				return err
			}
		}
		var runErr error
		med, all := measureBench(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sim.RunInto(&res, tout.Program, iters); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		snap.add(name, med)
		trials[name] = all
		return runErr
	}
	for _, op := range []string{"murmur", "probe", "filter"} {
		if err := simBench("sim/"+op, op, true, 4096); err != nil {
			return nil, nil, err
		}
	}
	if err := simBench("sim_slow/murmur", "murmur", false, 4096); err != nil {
		return nil, nil, err
	}

	// The offline-phase end-to-end figure: one full pruning search with
	// simulator-backed evaluations per op. The framework (and with it the
	// measurement memo) is rebuilt per op so every op does the identical
	// cold-search work — a shared memo would warm across iterations and
	// make the instruction count per op depend on trial order.
	tmpl, err := experiments.OpTemplate("murmur")
	if err != nil {
		return nil, nil, err
	}
	var optErr error
	med, all := measureBench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fw, err := core.New("silver", core.WithTestElems(1<<12))
			if err == nil {
				_, err = fw.OptimizeOperator(tmpl)
			}
			if err != nil {
				optErr = err
				b.FailNow()
			}
		}
	})
	snap.add("optimize/murmur", med)
	trials["optimize/murmur"] = all
	if optErr != nil {
		return nil, nil, optErr
	}
	return snap, trials, nil
}

// benchTrials is the trial width per benchmark. The committed snapshot
// keeps the median trial by host-normalized throughput — a max would let
// one lucky streak inflate the baseline and fail every honest re-run —
// while the regression gate passes if the best fresh trial reaches the
// baseline median (see compare).
const benchTrials = 5

// spinRounds sizes the host-speed spin kernel: a fixed xorshift loop, pure
// ALU, no memory traffic, identical on every machine and build.
const spinRounds = 1 << 16

var spinSink uint64

func spin() {
	x := uint64(88172645463325252)
	for i := 0; i < spinRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
}

// hostSpeed times the spin kernel and returns rounds per second — a
// measure of how fast this host is running right now (frequency scaling,
// CPU steal, and neighbors all show up in it the same way they show up in
// the benchmarks timed next to it).
func hostSpeed() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spin()
		}
	})
	if r.N == 0 || r.T <= 0 {
		return 0
	}
	return float64(r.N) * spinRounds / r.T.Seconds()
}

// The memory-speed kernel: a seeded pseudo-random walk over a buffer far
// larger than any LLC, so its rate tracks the memory subsystem the way the
// spin kernel tracks the ALUs. Memory-bound benchmarks (sim/probe hammers
// an 8 MiB hash table) move with this kernel, not the ALU one.
const (
	memWords    = 4 << 20 // 32 MiB of uint64
	memAccesses = 1 << 15
)

var memBuf []uint64

func memSpin() {
	idx := uint64(12345)
	var sum uint64
	for i := 0; i < memAccesses; i++ {
		idx = (idx*2654435761 + 1) & (memWords - 1)
		sum += memBuf[idx]
	}
	spinSink += sum
}

// memSpeed times the memory kernel and returns accesses per second.
func memSpeed() float64 {
	if memBuf == nil {
		memBuf = make([]uint64, memWords)
		// Touch every page: reads of never-written anonymous memory all
		// resolve to the kernel's shared zero page and hit L1, which would
		// turn this into a second ALU kernel.
		for i := range memBuf {
			memBuf[i] = uint64(i)
		}
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memSpin()
		}
	})
	if r.N == 0 || r.T <= 0 {
		return 0
	}
	return float64(r.N) * memAccesses / r.T.Seconds()
}

// measureBench runs fn through testing.Benchmark benchTrials times,
// measuring each trial's Minstr/s as the exact retired-instruction delta
// off the process-wide simulator totals and the host's speed right next to
// it, and returns the median trial by host-normalized throughput plus the
// full trial set.
func measureBench(fn func(b *testing.B)) (Bench, []Bench) {
	type trial struct {
		b    Bench
		norm float64
	}
	trials := make([]trial, 0, benchTrials)
	for t := 0; t < benchTrials; t++ {
		hs := hostSpeed()
		ms := memSpeed()
		before := uarch.Totals().Instructions
		r := testing.Benchmark(fn)
		delta := uarch.Totals().Instructions - before
		minstr := 0.0
		if secs := r.T.Seconds(); secs > 0 {
			minstr = float64(delta) / secs / 1e6
		}
		norm := minstr
		if hs > 0 {
			norm = minstr / hs
		}
		trials = append(trials, trial{
			b: Bench{
				NsPerOp:      float64(r.NsPerOp()),
				AllocsPerOp:  r.AllocsPerOp(),
				BytesPerOp:   r.AllocedBytesPerOp(),
				MinstrPerSec: minstr,
				HostSpeed:    hs,
				MemSpeed:     ms,
			},
			norm: norm,
		})
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].norm < trials[j].norm })
	all := make([]Bench, len(trials))
	for i, t := range trials {
		all[i] = t.b
	}
	return trials[len(trials)/2].b, all
}

// add appends one benchmark entry under its snapshot name.
func (s *Snapshot) add(name string, b Bench) {
	b.Name = name
	s.Benchmarks = append(s.Benchmarks, b)
}

// normRatio is one trial's throughput relative to the baseline entry,
// normalized by whichever calibration kernel is kinder: a code regression
// slows the benchmark relative to both kernels, while host variation (a
// throttled core, a saturated memory bus) shows up in one of them and
// cancels there. Older baselines without kernel fields compare raw.
func normRatio(b, old Bench) float64 {
	raw := b.MinstrPerSec / old.MinstrPerSec
	ratio := raw
	if b.HostSpeed > 0 && old.HostSpeed > 0 {
		ratio = raw / (b.HostSpeed / old.HostSpeed)
	}
	if b.MemSpeed > 0 && old.MemSpeed > 0 {
		if m := raw / (b.MemSpeed / old.MemSpeed); m > ratio {
			ratio = m
		}
	}
	return ratio
}

// compare fails when a benchmark present in both snapshots lost more than
// tol of its baseline (median-trial) Minstr/s. The gate takes the BEST of
// the fresh run's trials: noise on the fresh side can only produce false
// failures, while a genuine regression slows every trial, best included.
// The baseline side stays the median, so a lucky streak at baseline time
// cannot be committed as an unreachable bar. New benchmarks (absent from
// the baseline) pass; allocation counts are reported in the snapshot but
// not gated — they are pinned exactly by the engine test suite instead.
func compare(snap *Snapshot, trials map[string][]Bench, baselinePath string, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	baseline := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var regressed []string
	for _, b := range snap.Benchmarks {
		old, ok := baseline[b.Name]
		if !ok || old.MinstrPerSec <= 0 {
			continue
		}
		set := trials[b.Name]
		if len(set) == 0 {
			set = []Bench{b}
		}
		best := normRatio(set[0], old)
		for _, tb := range set[1:] {
			if r := normRatio(tb, old); r > best {
				best = r
			}
		}
		fmt.Printf("%-24s %10.1f -> %10.1f Minstr/s (best trial %+.1f%% normalized)\n",
			b.Name, old.MinstrPerSec, b.MinstrPerSec, (best-1)*100)
		if best < 1-tol {
			regressed = append(regressed, fmt.Sprintf("%s: %.1f -> %.1f Minstr/s (-%.1f%% normalized)",
				b.Name, old.MinstrPerSec, b.MinstrPerSec, (1-best)*100))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("throughput regression beyond %.0f%%:\n  %s", tol*100, joinLines(regressed))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
