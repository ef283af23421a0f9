package uarch

import "hef/internal/isa"

// Response-verified period replay: the extrapolation half of the fast path
// whose detector lives in steady.go.
//
// Translated operators — columnar scans, hash probes — advance their
// streams and jump their probes every iteration, so the hierarchy's state
// never recurs even when the core's does. Replay therefore splits the
// machine in two. Between two equal core-only boundary states, the core's
// trajectory is a deterministic function of one external input: the
// sequence of cache responses feeding loads, gathers and prefetches. Once
// the digest recurs with period p, the simulator records one more period
// slowly, capturing every hierarchy call with its response, and verifies
// the digest recurs again. From then on it stops simulating the core: each
// later period issues only the recorded hierarchy calls — with true
// addresses recomputed for the advancing iteration — and compares the live
// responses against the recorded ones. While they match, the core must
// retrace the recorded period exactly (by induction from the boundary
// state), so its counters extrapolate by exact integer deltas and its state
// shifts by (p iterations, d cycles) per period, while the hierarchy
// advances genuinely — contents, counters, prefetcher and all — by
// servicing the real access sequence. A sequential stream that hits L1
// behind the hardware prefetcher replays for thousands of periods at the
// cost of a handful of cache probes each.
//
// When a response deviates — a stream crosses into a cold line, a probe
// misses where the recorded period hit — the deviating period's hierarchy
// mutations are rolled back through the cache journal, leaving the machine
// exactly at the last boundary, and the slow path resumes; detection then
// re-arms from an emptied snapshot ring. Every path is bit-identical to the slow
// simulator: the differential suites in steady_test.go and the engine
// package check it, and the goldens pin the end-to-end bytes.

// recCall is one recorded hierarchy call: which body µop issued it, the
// iteration offset from the recording boundary, the lane addressed, and the
// response the core consumed (cache-extra latency for loads and gather
// lanes, fill level for prefetches; stores feed nothing back).
type recCall struct {
	b         int32
	iterDelta int32
	lane      int32
	want      int32
}

// record captures one hierarchy call during the recording window.
func (st *steadyState) record(b int32, iter int64, lane, want int) {
	st.recCalls = append(st.recCalls, recCall{
		b:         b,
		iterDelta: int32(iter - st.recStartIter),
		lane:      int32(lane),
		want:      int32(want),
	})
}

// startRecording arms the recording window at a boundary whose digest
// matched a ring snapshot with period p and cycle delta d.
func (st *steadyState) startRecording(res *Result, digest []byte, p, d, iter, cycle int64) {
	st.recording = true
	st.recStartIter, st.recStartCycle = iter, cycle
	st.recP, st.recD = p, d
	st.recDigest = append(st.recDigest[:0], digest...)
	st.recCalls = st.recCalls[:0]
	pb := st.recRes.PortBusy[:0]
	st.recRes = *res
	st.recRes.PortBusy = append(pb, res.PortBusy...)
}

// replayRun fast-forwards whole periods from a verified recording boundary:
// replay hierarchy calls period by period until the responses deviate or
// only the tail remains, then extrapolate the core across the replayed span.
func (st *steadyState) replayRun(s *Sim, res *Result, cycle, dispatchIter *int64, dispatchIdx int, minIter, iters int64) {
	p, d := st.recP, st.recD
	// Leave at least one iteration of tail so the loop-exit transition and
	// the ROB drain are simulated, not extrapolated.
	maxK := (iters - 1 - *dispatchIter) / p
	if maxK <= 0 {
		st.active = false
		return
	}
	base := *dispatchIter
	var k int64
	for k < maxK {
		s.hier.BeginJournal()
		if !st.replayPeriod(s, base+k*p) {
			s.hier.RollbackJournal()
			break
		}
		s.hier.CommitJournal()
		k++
	}
	if k > 0 {
		addScaledSelfDelta(res, &st.recRes, uint64(k))
		s.shiftSteady(k*p, k*d, minIter, *dispatchIter, dispatchIdx)
		*cycle += k * d
		*dispatchIter += k * p
		st.skippedIters += k * p
		st.skippedCycles += k * d
		totalReplayPeriods.Add(uint64(k))
		st.seen = 0 // the program settles, so the boundary budget restarts
	}
	if k == maxK {
		st.active = false
		return
	}
	// A response deviated: the deviating period was rolled back, the machine
	// sits exactly at the last good boundary, and the slow path resumes with
	// detection still armed. The ring's snapshots predate the recording and
	// any replayed span; one of them matching later would pose as a period
	// of hundreds of iterations and switch detection off, so detection
	// starts over from an empty ring.
	for i := range st.ring {
		st.ring[i].valid = false
	}
}

// replayPeriod re-issues one period's recorded hierarchy calls with the true
// addresses of the period starting at baseIter, comparing each response the
// core would consume against the recording. It reports whether the whole
// period matched; on a mismatch the caller rolls back its mutations.
func (st *steadyState) replayPeriod(s *Sim, baseIter int64) bool {
	sk := s.skel
	epi := sk.elemsPerIter
	for i := range st.recCalls {
		c := &st.recCalls[i]
		a := &sk.addr[c.b]
		addr := a.address(baseIter+int64(c.iterDelta), int(c.lane), epi)
		switch class := sk.class[c.b]; {
		case class == isa.Store:
			// A store's response never reaches the core (its queue slot uses
			// the instruction latency alone), so the access only has to
			// advance the hierarchy.
			s.hier.Access(addr)
		case class == isa.Prefetch:
			lvl := s.hier.Prefetch(addr)
			if int32(lvl) != c.want && !sk.isStream[c.b] {
				return false
			}
		default: // a load, or one gather lane
			extra, _ := s.cacheExtra(addr)
			if int32(extra) != c.want {
				return false
			}
		}
	}
	return true
}
