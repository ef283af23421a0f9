package uarch

import "sync/atomic"

// Process-wide simulation totals, bumped once per completed RunInto. The
// telemetry layer polls these through Totals — keeping them as package
// atomics means the simulator stays dependency-free and the per-run cost is
// a handful of uncontended atomic adds, independent of the program size.
var (
	totalInstr         atomic.Uint64
	totalFastCycles    atomic.Uint64
	totalSlowCycles    atomic.Uint64
	totalRuns          atomic.Uint64
	totalIdleSkipped   atomic.Uint64
	totalReplayPeriods atomic.Uint64
)

// SimTotals is a snapshot of the process-wide simulation counters.
type SimTotals struct {
	// Instructions retired across every run.
	Instructions uint64
	// FastCycles were fast-forwarded by period replay (steady.go);
	// SlowCycles were stepped one at a time. Their sum is total simulated
	// cycles.
	FastCycles, SlowCycles uint64
	// Runs counts completed RunInto calls.
	Runs uint64
	// IdleSkipped counts cycles the slow path's event-driven idle
	// fast-forward jumped over (they are accounted in SlowCycles: the jump
	// produces the identical counters a cycle-by-cycle walk would).
	IdleSkipped uint64
	// SkeletonHits and SkeletonMisses count schedule-skeleton binds: a hit
	// re-runs the program and timing perturbation the simulator bound last,
	// without re-validating or rebuilding; a miss rebuilds the simulator's
	// skeleton.
	SkeletonHits, SkeletonMisses uint64
	// ReplayPeriods counts loop periods fast-forwarded by response-verified
	// replay (replay.go): the core was extrapolated while the cache hierarchy
	// serviced the period's real access sequence.
	ReplayPeriods uint64
}

// Totals reports the counters accumulated since process start (or the last
// ResetTotals).
func Totals() SimTotals {
	return SimTotals{
		Instructions:   totalInstr.Load(),
		FastCycles:     totalFastCycles.Load(),
		SlowCycles:     totalSlowCycles.Load(),
		Runs:           totalRuns.Load(),
		IdleSkipped:    totalIdleSkipped.Load(),
		SkeletonHits:   skelHits.Load(),
		SkeletonMisses: skelMisses.Load(),
		ReplayPeriods:  totalReplayPeriods.Load(),
	}
}

// ResetTotals zeroes the process-wide counters. Test-only.
func ResetTotals() {
	totalInstr.Store(0)
	totalFastCycles.Store(0)
	totalSlowCycles.Store(0)
	totalRuns.Store(0)
	totalIdleSkipped.Store(0)
	totalReplayPeriods.Store(0)
	skelHits.Store(0)
	skelMisses.Store(0)
}

// recordTotals folds one finished run into the process-wide counters.
func recordTotals(res *Result, fastCycles, idleSkipped int64) {
	totalInstr.Add(res.Instructions)
	if fastCycles < 0 {
		fastCycles = 0
	}
	fast := uint64(fastCycles)
	if fast > res.Cycles {
		fast = res.Cycles
	}
	totalFastCycles.Add(fast)
	totalSlowCycles.Add(res.Cycles - fast)
	totalRuns.Add(1)
	if idleSkipped > 0 {
		totalIdleSkipped.Add(uint64(idleSkipped))
	}
}
