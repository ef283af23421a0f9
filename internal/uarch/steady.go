package uarch

import (
	"bytes"
	"encoding/binary"
	"slices"

	"hef/internal/check"
)

// Steady-state fast path: period detection plus response-verified replay.
//
// A translated loop settles into a periodic regime even though its addresses
// advance every iteration: the core half of the machine — ROB contents,
// scheduler order, register readiness, port horizons, memory-queue
// completions — holds no addresses, so its state relative to the dispatch
// front recurs. Run digests that core-only state at each iteration-dispatch
// boundary and keeps the last steadyRing digests. On an exact recurrence with
// period p it records one more period slowly, capturing every hierarchy call
// with the response the core consumed, and replays from there (replay.go):
// the hierarchy services the real addresses of each later period while the
// core's counters extrapolate by exact integer deltas and its state shifts
// by (p iterations, d cycles). The result is bit-identical to the slow path
// (see steady_test.go and the engine's differential over translated
// templates).
//
// The fast path turns itself off when a trace log is attached (events carry
// absolute cycles), when Debug printing is on, and when port-fault injection
// is active (faults hash the absolute cycle, so state recurrence does not
// imply trajectory recurrence). Latency/occupancy perturbation keys on the
// instruction name and is safe.

const (
	// steadyRing is how many recent boundary snapshots are kept: a
	// recurrence is detected against any of them. Wide dispatch can cross
	// several iterations between observed boundaries, so a period may span
	// more than steadyRing iterations.
	steadyRing = 8
	// steadyMaxBoundaries bounds the snapshot work on programs that never
	// settle: after that many boundaries without a replayed period the
	// detector gives up for the rest of the run.
	steadyMaxBoundaries = 512
)

// steadySnap is one stored boundary snapshot. Its digest buffer is reused
// across boundaries and runs.
type steadySnap struct {
	valid  bool
	iter   int64
	cycle  int64
	digest []byte
}

// steadyState is the per-Sim detector; scratch persists across runs so the
// steady path itself allocates nothing once warm.
type steadyState struct {
	active   bool
	lastIter int64
	seen     int
	ring     [steadyRing]steadySnap
	next     int

	buf     []byte
	heapTmp []int64
	regTmp  []int64
	whTmp   []int32

	skippedIters  int64
	skippedCycles int64

	// recording is set while the period after a detected recurrence is
	// re-simulated slowly with every hierarchy call captured; tryIssue's
	// memory paths consult it.
	recording     bool
	recStartIter  int64
	recStartCycle int64
	recP, recD    int64
	recDigest     []byte
	recRes        Result
	recCalls      []recCall

	// invariantErr records a steadyDeltaCheck violation found while
	// extrapolating (when self-checks are enabled); RunInto surfaces it as
	// the run's error.
	invariantErr error
}

// SetFastPath enables or disables the steady-state fast path (default
// enabled). Disabling forces every Run onto the full cycle-by-cycle path;
// the differential tests use it to check bit-identity.
func (s *Sim) SetFastPath(on bool) { s.fastOff = !on }

// FastForwarded reports how many iterations and cycles the most recent Run
// skipped by period replay (both zero when the full path ran).
func (s *Sim) FastForwarded() (iters, cycles int64) {
	return s.steady.skippedIters, s.steady.skippedCycles
}

// begin arms the detector for one Run.
func (st *steadyState) begin(s *Sim) {
	st.skippedIters, st.skippedCycles = 0, 0
	st.active = false
	st.recording = false
	st.invariantErr = nil
	if s.fastOff || s.trace != nil || Debug {
		return
	}
	if s.perturb != nil && s.perturb.PortFaultRate > 0 {
		return
	}
	st.active = true
	st.lastIter = 0
	st.seen = 0
	st.next = 0
	for i := range st.ring {
		st.ring[i].valid = false
	}
}

// observe runs at one iteration-dispatch boundary: digest the relative core
// state, close or open a recording window on a recurrence, or remember the
// snapshot.
func (st *steadyState) observe(s *Sim, res *Result, cycle, dispatchIter *int64, dispatchIdx int, iters int64) {
	st.lastIter = *dispatchIter
	wasRecording := st.recording
	if wasRecording && *dispatchIter < st.recStartIter+st.recP {
		return // mid-recording boundary: keep capturing the period
	}
	if !wasRecording {
		st.seen++
		if st.seen > steadyMaxBoundaries {
			st.active = false
			return
		}
	}
	digest, minIter, ok := st.encode(s, *cycle, *dispatchIter, dispatchIdx)
	if wasRecording {
		// The recording window just closed. If the boundary state recurred
		// at exactly p iterations (wide dispatch can overshoot a boundary,
		// which voids the window), the captured calls are one canonical
		// period — self-contained proof of periodicity regardless of the
		// originally detected cycle delta — and replay starts here.
		// Otherwise the trajectory shifted while recording; fall through to
		// ordinary detection at this boundary.
		st.recording = false
		if ok && *dispatchIter == st.recStartIter+st.recP && bytes.Equal(digest, st.recDigest) {
			st.recD = *cycle - st.recStartCycle
			if check.Enabled() {
				if err := steadyDeltaCheck(res, &st.recRes, st.recD); err != nil {
					st.invariantErr = err
				}
			}
			st.replayRun(s, res, cycle, dispatchIter, dispatchIdx, minIter, iters)
			return
		}
	}
	if !ok {
		return
	}
	for i := range st.ring {
		snap := &st.ring[i]
		if !snap.valid || !bytes.Equal(snap.digest, digest) {
			continue
		}
		p := *dispatchIter - snap.iter
		d := *cycle - snap.cycle
		if p <= 0 || d <= 0 {
			continue
		}
		// One period records and at least one more must remain to replay,
		// ahead of the iteration of tail that simulates the loop exit and
		// the ROB drain.
		if (iters-1-*dispatchIter)/p < 2 {
			st.active = false
			return
		}
		st.startRecording(res, digest, p, d, *dispatchIter, *cycle)
		return
	}
	snap := &st.ring[st.next]
	st.next = (st.next + 1) % steadyRing
	snap.valid = true
	snap.iter, snap.cycle = *dispatchIter, *cycle
	snap.digest = append(snap.digest[:0], digest...)
}

// encode canonicalises the core's state relative to (cycle, dispatchIter).
// Completion cycles at or before the current cycle are clamped to zero (all
// "already available" states behave identically), iteration numbers are
// taken relative to the dispatch front, and ROB positions relative to the
// head. It refuses (ok=false) while iteration 0 is still in flight, whose
// loop-carried reads are special-cased by srcsReady.
func (st *steadyState) encode(s *Sim, cycle, dispatchIter int64, dispatchIdx int) (digest []byte, minIter int64, ok bool) {
	buf := st.buf[:0]
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }

	minIter = dispatchIter
	u64(uint64(dispatchIdx))
	u64(uint64(s.robCount))
	robLen := len(s.robBody)
	for idx := 0; idx < s.robCount; idx++ {
		e := (s.robHead + idx) % robLen
		if s.robIter[e] < minIter {
			minIter = s.robIter[e]
		}
		u64(uint64(s.robBody[e]))
		u64(uint64(dispatchIter - s.robIter[e]))
		if s.robIssued[e] {
			c := s.robCompletion[e] - cycle
			if c < 0 {
				c = 0
			}
			u64(1)
			u64(uint64(c))
		} else {
			u64(0)
			u64(0)
		}
	}
	if minIter < 1 {
		st.buf = buf
		return nil, 0, false
	}
	u64(uint64(s.uopsInROB))
	// The waiting set needs no encoding of its own: entries leave the
	// scheduler exactly when they issue, so it is always the unissued ROB
	// entries in age order — fully determined by the per-entry issued flags
	// above, in both scheduler modes. (The event scheduler's watcher lists,
	// maturation heap, and ready set are equally derived from the ROB and
	// slab contents; states with equal digests replay identically however
	// that derived state is partitioned.)
	for _, f := range s.portFree {
		c := f - cycle
		if c < 0 {
			c = 0
		}
		u64(uint64(c))
	}
	// Heap layout is irrelevant to behaviour (drain removes every entry at
	// or below the cycle, min only reads the minimum), so the multiset of
	// pending completions is the canonical form.
	for _, h := range []*minHeap{&s.loadQ, &s.storeQ, &s.lfb, &s.inflight} {
		u64(uint64(len(*h)))
		tmp := append(st.heapTmp[:0], *h...)
		slices.Sort(tmp)
		st.heapTmp = tmp
		for _, v := range tmp {
			u64(uint64(v - cycle))
		}
	}
	// Live register-ring window: slots minIter-1 (loop-carried reads of the
	// oldest in-flight iteration) up to the dispatch front. The front
	// iteration's slot is live only once its first instruction has
	// dispatched (which cleared it); before that it holds dead values from
	// regRingSlots iterations ago.
	hi := dispatchIter
	if dispatchIdx > 0 {
		hi = dispatchIter + 1
	}
	nr := s.skel.numRegs
	for j := minIter - 1; j < hi; j++ {
		base := int(j&regRingMask) * nr
		for _, v := range s.slab[base : base+nr] {
			switch {
			case v == notIssued:
				u64(^uint64(0))
			case v <= cycle:
				u64(0)
			default:
				u64(uint64(v - cycle))
			}
		}
	}
	// The hierarchy is deliberately absent from the digest: its divergence
	// is caught per access by response verification instead.
	st.buf = buf
	return buf, minIter, true
}

// shiftSteady moves the live machine state forward by kp iterations and kd
// cycles without simulating them: every absolute cycle shifts by kd, every
// iteration number by kp, and the live register-ring window rotates to the
// slots its shifted iteration numbers index.
func (s *Sim) shiftSteady(kp, kd, minIter, dispatchIter int64, dispatchIdx int) {
	nr := s.skel.numRegs
	ringLen := regRingSlots * nr
	// The shifted iteration numbers index ring slots rotated by kp, so every
	// resolved slab offset rotates with them.
	rot := int(kp&regRingMask) * nr
	robLen := len(s.robBody)
	for idx := 0; idx < s.robCount; idx++ {
		e := (s.robHead + idx) % robLen
		s.robIter[e] += kp
		if s.robIssued[e] {
			s.robCompletion[e] += kd
		} else {
			// Resolved-operand completions folded so far are absolute cycles.
			s.readyAt[e] += kd
		}
		so := e * 3
		for k := 0; k < int(s.robSrcCnt[e]); k++ {
			o := s.robSrc[so+k] + int32(rot)
			if o >= int32(ringLen) {
				o -= int32(ringLen)
			}
			s.robSrc[so+k] = o
		}
		if o := s.robDst[e]; o >= 0 {
			o += int32(rot)
			if o >= int32(ringLen) {
				o -= int32(ringLen)
			}
			s.robDst[e] = o
		}
	}
	hi := dispatchIter // exclusive upper slot is hi
	if dispatchIdx > 0 {
		hi = dispatchIter + 1
	}
	w := int(hi - minIter + 1)
	need := w * nr
	if cap(s.steady.regTmp) < need {
		s.steady.regTmp = make([]int64, need)
	}
	tmp := s.steady.regTmp[:need]
	if cap(s.steady.whTmp) < need {
		s.steady.whTmp = make([]int32, need)
	}
	wtmp := s.steady.whTmp[:need]
	for i := 0; i < w; i++ {
		base := int((minIter-1+int64(i))&regRingMask) * nr
		copy(tmp[i*nr:(i+1)*nr], s.slab[base:base+nr])
		copy(wtmp[i*nr:(i+1)*nr], s.watchHead[base:base+nr])
	}
	for i := 0; i < w; i++ {
		base := int((minIter-1+int64(i)+kp)&regRingMask) * nr
		dst := s.slab[base : base+nr]
		for r, v := range tmp[i*nr : (i+1)*nr] {
			if v != notIssued {
				v += kd
			}
			dst[r] = v
		}
		// Watcher lists follow their cells (node ids are entry-based and
		// unaffected; only the cell → list-head mapping rotates).
		copy(s.watchHead[base:base+nr], wtmp[i*nr:(i+1)*nr])
	}
	for _, h := range []*minHeap{&s.loadQ, &s.storeQ, &s.lfb, &s.inflight} {
		for i := range *h {
			(*h)[i] += kd
		}
	}
	for i := range s.timeHeap {
		s.timeHeap[i].at += kd
	}
	for i := range s.portFree {
		s.portFree[i] += kd
	}
	// Slab values changed wholesale; any sampled scan-skip bound is void.
	s.rsNextReady = 0
}

// addScaledSelfDelta adds k times the counter delta accumulated since base
// (res - base) onto res, in exact integer arithmetic — the counter half of
// replaying k steady-state periods.
func addScaledSelfDelta(res, base *Result, k uint64) {
	res.Instructions += k * (res.Instructions - base.Instructions)
	res.Uops += k * (res.Uops - base.Uops)
	res.IssuedUops += k * (res.IssuedUops - base.IssuedUops)
	for i := range res.Hist {
		res.Hist[i] += k * (res.Hist[i] - base.Hist[i])
	}
	res.Vec512Uops += k * (res.Vec512Uops - base.Vec512Uops)
	res.PrefetchUops += k * (res.PrefetchUops - base.PrefetchUops)
	res.Stalls.Retiring += k * (res.Stalls.Retiring - base.Stalls.Retiring)
	res.Stalls.Frontend += k * (res.Stalls.Frontend - base.Stalls.Frontend)
	res.Stalls.BackendPort += k * (res.Stalls.BackendPort - base.Stalls.BackendPort)
	res.Stalls.Memory += k * (res.Stalls.Memory - base.Stalls.Memory)
	res.Stalls.Dependency += k * (res.Stalls.Dependency - base.Stalls.Dependency)
	for i := range res.PortBusy {
		res.PortBusy[i] += k * (res.PortBusy[i] - base.PortBusy[i])
	}
	for i := range res.ROBOcc.Buckets {
		res.ROBOcc.Buckets[i] += k * (res.ROBOcc.Buckets[i] - base.ROBOcc.Buckets[i])
	}
	for i := range res.LoadQOcc.Buckets {
		res.LoadQOcc.Buckets[i] += k * (res.LoadQOcc.Buckets[i] - base.LoadQOcc.Buckets[i])
	}
}
