package uarch

import (
	"math"
	"math/bits"
	"slices"
)

// Calendar wheels for the cycle loop's timed events.
//
// The memory queues, the in-flight set and the scheduler's maturation queue
// all hold events keyed by a future cycle, and every stepped cycle asks
// each of them what is due. A binary heap answers in O(log n) per event; a
// wheel answers in O(1): a ring of per-cycle slots over [base,
// base+wheelSlots), a bitmap of the non-empty slots, and the earliest
// non-empty slot cached as near. An event beyond the horizon goes to a
// fallback minHeap (far) instead; no modelled latency reaches that far, so
// in practice far stays empty.

// wheelSlots is the wheels' horizon in cycles: more than any modelled
// latency (DRAM is about 220 cycles, and a gather adds its slowest lane to
// that).
const (
	wheelSlots = 512
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// wheelRing is the slot index both wheels share: which slots of the ring
// are non-empty, and the cycle of the earliest one. Every event on the ring
// lies in [base, base+wheelSlots), so slot v&wheelMask names one cycle v.
type wheelRing struct {
	base int64
	near int64 // earliest non-empty slot's cycle; math.MaxInt64 when none
	busy [wheelWords]uint64
}

// fits reports whether cycle v lies inside the ring's window.
func (r *wheelRing) fits(v int64) bool { return uint64(v-r.base) < wheelSlots }

// mark records that cycle v's slot holds an event.
func (r *wheelRing) mark(v int64) {
	s := v & wheelMask
	r.busy[s>>6] |= 1 << (s & 63)
	r.near = min(r.near, v)
}

// unmarkNear records that the earliest non-empty slot is now empty.
func (r *wheelRing) unmarkNear() {
	s := r.near & wheelMask
	r.busy[s>>6] &^= 1 << (s & 63)
	r.near = r.nextBusy(r.near)
}

// nextBusy returns the cycle of the first non-empty slot after cycle v (a
// cycle in the window), or math.MaxInt64 when the rest of the window is
// empty.
func (r *wheelRing) nextBusy(v int64) int64 {
	end := r.base + wheelSlots
	for v++; v < end; {
		s := v & wheelMask
		if word := r.busy[s>>6] >> (s & 63); word != 0 {
			if v += int64(bits.TrailingZeros64(word)); v < end {
				return v
			}
			break
		}
		v += 64 - s&63
	}
	return math.MaxInt64
}

// eventWheel is a multiset of completion cycles with the operations the
// memory queues and the in-flight set need: push, drain every entry at or
// below a cycle, the minimum and the count. Its ring holds a count per
// cycle, and its base is the last drained cycle. Entries outside the window
// (beyond the horizon, or pushed below base) go to far. lo caches the
// minimum over both, so a drain in a cycle where nothing completes is one
// compare and the minimum is one load.
//
// Each operation answers exactly as a minHeap holding the same values
// would. The zero value must be reset before use.
type eventWheel struct {
	wheelRing
	lo  int64 // minimum of all entries; math.MaxInt64 when empty
	n   int   // entries on the ring and in far
	cnt [wheelSlots]int32
	far minHeap
	tmp []int64 // shift scratch
}

// len is the number of entries.
func (w *eventWheel) len() int { return w.n }

// head is the minimum entry; it is only meaningful when len() > 0.
func (w *eventWheel) head() int64 { return w.lo }

// min returns the minimum entry, or ok=false when the wheel is empty.
func (w *eventWheel) min() (int64, bool) { return w.lo, w.n > 0 }

// push adds one entry completing at cycle v.
func (w *eventWheel) push(v int64) {
	w.n++
	w.lo = min(w.lo, v)
	if !w.fits(v) {
		w.far.push(v)
		return
	}
	w.cnt[v&wheelMask]++
	w.mark(v)
}

// drain removes every entry at or below cycle.
func (w *eventWheel) drain(cycle int64) {
	if cycle < w.lo {
		// Nothing completes: only the window moves up to the cycle.
		w.base = max(w.base, cycle)
		return
	}
	w.drainSlow(cycle)
}

func (w *eventWheel) drainSlow(cycle int64) {
	n := len(w.far)
	w.far.drain(cycle)
	w.n -= n - len(w.far)
	for w.near <= cycle {
		s := w.near & wheelMask
		w.n -= int(w.cnt[s])
		w.cnt[s] = 0
		w.unmarkNear()
	}
	w.base = max(w.base, cycle)
	w.lo = w.near
	if len(w.far) > 0 {
		w.lo = min(w.lo, w.far[0])
	}
}

// reset empties the wheel and moves its window to start at cycle 0.
func (w *eventWheel) reset() {
	for v := w.near; v != math.MaxInt64; v = w.nextBusy(v) {
		w.cnt[v&wheelMask] = 0
	}
	w.wheelRing = wheelRing{near: math.MaxInt64}
	w.far = w.far[:0]
	w.lo, w.n = math.MaxInt64, 0
}

// appendSorted appends every entry to dst in ascending order.
func (w *eventWheel) appendSorted(dst []int64) []int64 {
	start := len(dst)
	for v := w.near; v != math.MaxInt64; v = w.nextBusy(v) {
		for k := w.cnt[v&wheelMask]; k > 0; k-- {
			dst = append(dst, v)
		}
	}
	if len(w.far) > 0 {
		dst = append(dst, w.far...)
		slices.Sort(dst[start:])
	}
	return dst
}

// shift adds kd to every entry and to the window's base, as when the whole
// machine state moves forward by kd cycles.
func (w *eventWheel) shift(kd int64) {
	vals := w.appendSorted(w.tmp[:0])
	base := w.base + kd
	w.reset()
	w.base = base
	for _, v := range vals {
		w.push(v + kd)
	}
	w.tmp = vals
}

// readyWheel is the scheduler's maturation queue: ROB entries whose
// operands are all resolved, each waiting for its data-ready cycle. Its ring
// holds a list of entries per cycle, threaded through next (one link per ROB
// entry). The order within a cycle is free, because insertReady places each
// matured entry by age. base is a cycle at or before the next pop, so an
// entry already data-ready when pushed (ready cycle below base) is filed at
// base: it still matures at the next pop, as it would at its own cycle.
// Entries beyond the horizon go to far, keyed by readyKey.
type readyWheel struct {
	wheelRing
	n    int // entries on the ring and in far
	head [wheelSlots]int32
	next []int32
	far  minHeap
	tmp  []int64 // shift scratch
}

// newReadyWheel returns an empty maturation queue for a ROB ring of robCap
// entries.
func newReadyWheel(robCap int) readyWheel {
	w := readyWheel{next: make([]int32, robCap)}
	for i := range w.head {
		w.head[i] = -1
	}
	w.near = math.MaxInt64
	return w
}

// push files ROB entry ei, data-ready at cycle at, at clock cycle now.
func (w *readyWheel) push(at int64, ei int32, now int64) {
	w.n++
	if w.near > now {
		// Nothing on the ring is due yet, so the window can start at now.
		w.base = max(w.base, now)
	}
	at = max(at, w.base)
	if !w.fits(at) {
		w.far.push(readyKey(at, ei))
		return
	}
	s := at & wheelMask
	w.next[ei] = w.head[s]
	w.head[s] = ei
	w.mark(at)
}

// pop removes and returns one entry whose ready cycle is at or below
// cycle, or ok=false when none is.
func (w *readyWheel) pop(cycle int64) (ei int32, ok bool) {
	if w.near <= cycle {
		s := w.near & wheelMask
		ei = w.head[s]
		if w.head[s] = w.next[ei]; w.head[s] < 0 {
			w.unmarkNear()
		}
		w.n--
		return ei, true
	}
	w.base = max(w.base, cycle)
	if len(w.far) > 0 && w.far[0]>>robBits <= cycle {
		w.n--
		return int32(w.far.pop() & robMask), true
	}
	return 0, false
}

// nextReady is the earliest ready cycle; it is only meaningful when n > 0.
func (w *readyWheel) nextReady() int64 {
	if len(w.far) > 0 {
		return min(w.near, w.far[0]>>robBits)
	}
	return w.near
}

// reset empties the queue and moves its window to start at cycle 0.
func (w *readyWheel) reset() {
	for v := w.near; v != math.MaxInt64; v = w.nextBusy(v) {
		w.head[v&wheelMask] = -1
	}
	w.wheelRing = wheelRing{near: math.MaxInt64}
	w.far = w.far[:0]
	w.n = 0
}

// shift adds kd to every entry's ready cycle and to the window's base.
func (w *readyWheel) shift(kd int64) {
	keys := append(w.tmp[:0], w.far...)
	for v := w.near; v != math.MaxInt64; v = w.nextBusy(v) {
		for ei := w.head[v&wheelMask]; ei >= 0; ei = w.next[ei] {
			keys = append(keys, readyKey(v, ei))
		}
	}
	base := w.base + kd
	w.reset()
	w.base = base
	for _, k := range keys {
		w.push(k>>robBits+kd, int32(k&robMask), base)
	}
	w.tmp = keys
}
