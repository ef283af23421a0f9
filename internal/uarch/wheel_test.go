package uarch

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// wheelCoverage counts the cases driveWheels exercised.
type wheelCoverage struct {
	zeroLatency, beyondHorizon, belowBase, idleJumps, shifts, walks, matured int
}

// driveWheels interprets data as a sequence of operations on an eventWheel
// and a readyWheel, and applies each to a reference minHeap as well (the
// structure the wheels replaced), failing at the first step where any
// answer differs. The clock only moves forward, as in the simulator:
// single cycles, idle jumps longer than the horizon, and shiftSteady's
// shifts of the whole state.
//
// The eventWheel must equal its heap after every step: count, minimum and
// the in-order walk that steadyState.encode reads. The readyWheel is held
// to what the scheduler reads: its count after every step, the entries a
// pop at the clock returns, and its earliest ready cycle once everything
// due has been popped.
func driveWheels(t testing.TB, data []byte) wheelCoverage {
	const robCap = 64
	var (
		cov   wheelCoverage
		ew    eventWheel
		ref   minHeap
		now   int64
		rw    = newReadyWheel(robCap)
		rref  minHeap
		free  []int32
		walk  []int64
		popd  []int32
		wantP []int32
	)
	ew.reset()
	for i := robCap - 1; i >= 0; i-- {
		free = append(free, int32(i))
	}
	check := func(step int, op string) {
		t.Helper()
		if ew.len() != len(ref) {
			t.Fatalf("step %d (%s): eventWheel len %d, heap %d", step, op, ew.len(), len(ref))
		}
		m, ok := ew.min()
		if ok != (len(ref) > 0) || ok && (m != ref[0] || ew.head() != ref[0]) {
			t.Fatalf("step %d (%s): eventWheel min (%d, %v) head %d, heap %v", step, op, m, ok, ew.head(), ref)
		}
		if rw.n != len(rref) {
			t.Fatalf("step %d (%s): readyWheel holds %d, heap %d", step, op, rw.n, len(rref))
		}
	}
	matureAll := func(step int) {
		t.Helper()
		popd, wantP = popd[:0], wantP[:0]
		for ei, ok := rw.pop(now); ok; ei, ok = rw.pop(now) {
			popd = append(popd, ei)
		}
		for len(rref) > 0 && rref[0]>>robBits <= now {
			wantP = append(wantP, int32(rref.pop()&robMask))
		}
		slices.Sort(popd)
		slices.Sort(wantP)
		if !slices.Equal(popd, wantP) {
			t.Fatalf("step %d: readyWheel matured %v at cycle %d, heap %v", step, popd, now, wantP)
		}
		cov.matured += len(popd)
		free = append(free, popd...)
		if len(rref) > 0 && rw.nextReady() != rref[0]>>robBits {
			t.Fatalf("step %d: readyWheel next ready %d, heap %d", step, rw.nextReady(), rref[0]>>robBits)
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, int64(data[i+1])
		switch op {
		case 0: // a completion, at most 765 cycles out; or below the clock
			v := now + arg*3
			switch {
			case arg >= 250:
				v = now - (arg - 250)
				cov.belowBase++
			case arg == 0:
				cov.zeroLatency++
			case arg*3 >= wheelSlots:
				cov.beyondHorizon++
			}
			ew.push(v)
			ref.push(v)
		case 1: // a drain at, or a little before, the clock
			c := now - arg%3
			ew.drain(c)
			ref.drain(c)
		case 2, 3: // one simulated cycle, or an idle jump past the horizon
			if op == 2 {
				now += 1 + arg%4
			} else {
				now += wheelSlots + arg*4
				cov.idleJumps++
			}
			ew.drain(now)
			ref.drain(now)
			matureAll(i)
		case 4: // shiftSteady
			kd := arg*7 + 1
			ew.shift(kd)
			for j := range ref {
				ref[j] += kd
			}
			rw.shift(kd)
			for j := range rref {
				rref[j] += kd << robBits
			}
			now += kd
			cov.shifts++
		case 5: // the in-order walk of encode
			walk = ew.appendSorted(walk[:0])
			want := slices.Clone(ref)
			slices.Sort(want)
			if !slices.Equal(walk, want) {
				t.Fatalf("step %d: eventWheel walks %v, sorted heap %v", i, walk, want)
			}
			cov.walks++
		case 6: // an entry resolves: ready in the last 20 cycles or the next
			// 20, or up to 672 cycles out
			if len(free) == 0 {
				continue
			}
			k := int(arg) % len(free)
			ei := free[k]
			free[k] = free[len(free)-1]
			free = free[:len(free)-1]
			at := now - 20 + arg%40
			if arg >= 200 {
				at = now + (arg-200)*12
			}
			rw.push(at, ei, now)
			rref.push(readyKey(at, ei))
		case 7:
			matureAll(i)
		}
		check(i, [...]string{"push", "drain", "step", "idle jump", "shift", "walk", "resolve", "mature"}[op])
	}
	return cov
}

// TestEventWheelMatchesHeap runs driveWheels over random operation
// sequences and requires each case the wheels special-case to occur.
func TestEventWheelMatchesHeap(t *testing.T) {
	var total wheelCoverage
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x3eed))
		data := make([]byte, 6000)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		c := driveWheels(t, data)
		total.zeroLatency += c.zeroLatency
		total.beyondHorizon += c.beyondHorizon
		total.belowBase += c.belowBase
		total.idleJumps += c.idleJumps
		total.shifts += c.shifts
		total.walks += c.walks
		total.matured += c.matured
	}
	if total.zeroLatency == 0 || total.beyondHorizon == 0 || total.belowBase == 0 ||
		total.idleJumps == 0 || total.shifts == 0 || total.walks == 0 || total.matured == 0 {
		t.Errorf("a case never occurred: %+v", total)
	}
}

// FuzzEventWheel is driveWheels over fuzzer-chosen operation sequences.
func FuzzEventWheel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 200, 2, 1, 3, 0, 4, 3, 5, 0, 6, 9, 7, 0})
	f.Add([]byte{6, 0, 6, 7, 6, 255, 2, 3, 7, 0, 0, 171, 0, 255, 1, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		driveWheels(t, data)
	})
}
