package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference machine is a guest on a shared host, and how much work the
// host gets done in a second of this process's CPU time drifts by ±10% over
// minutes with what the other tenants do. The host meter measures that
// drift with two fixed kernels that live in this file, so no change to the
// program moves them: an interpreter loop (branchy dispatch over a 1 MiB
// table, like the simulator's stepping) and map updates (hashing, like the
// memo and the translator). It runs them beside the workload through the
// whole timed pass, so that they see the host as the workload does, and
// the pass divides its CPU time by the host factor: the kernels' median
// thread CPU time over their reference time. Timed only between ops, the
// kernels caught single moments of a host whose speed jumps by a third
// from moment to moment, and tracked the workload worse than no factor.
// Beside it, the workload's own load slows them too, by an amount that
// stays put for a given workload and cancels between two commits unless a
// change alters how the workload loads the machine.

// meterEvery is the host meter's sampling interval; one sample takes about
// 1.5 ms of one core's time.
const meterEvery = 100 * time.Millisecond

// kernel is one calibration kernel and its reference time: the median, in
// milliseconds, of its per-run median thread CPU time over 40 runs of the
// four workloads on the reference machine (a 2-vCPU Intel Xeon VM).
type kernel struct {
	name  string
	run   func()
	refMS float64
}

var kernels = []kernel{{"interp", interpKernel, 0.80}, {"map", mapKernel, 0.83}}

var (
	kernelSink  uint64
	interpCode  [4096]byte
	interpTable [1 << 18]uint32
	kernelMap   = make(map[uint64]uint64, 8192)
)

func init() {
	for i := range interpCode {
		interpCode[i] = byte(uint32(i) * 2654435761 >> 7)
	}
}

// interpKernel steps a fixed bytecode: register arithmetic, data-dependent
// branches, and loads and stores at hashed table indices.
func interpKernel() {
	const mask = len(interpTable) - 1
	regs := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var acc, pc uint64
	for i := 0; i < 100_000; i++ {
		op := interpCode[pc%uint64(len(interpCode))]
		r := op >> 5
		switch op & 7 {
		case 0:
			regs[r] += regs[(op>>2)&7]
		case 1:
			regs[r] ^= uint64(interpTable[int(regs[1]*2654435761)&mask])
		case 2:
			if regs[r]&1 == 0 {
				pc += 3
			}
		case 3:
			interpTable[int(regs[2]*40503)&mask] = uint32(regs[r])
		case 4:
			regs[r] = regs[r]<<1 | regs[r]>>63
		case 5:
			acc += regs[r]
		case 6:
			regs[(op>>2)&7] *= 3
		default:
			regs[0]++
		}
		pc++
	}
	kernelSink += acc + regs[0]
}

// mapKernel refills one map of 5000 keys, so it allocates nothing once the
// map has grown.
func mapKernel() {
	clear(kernelMap)
	for i := 0; i < 40_000; i++ {
		kernelMap[uint64(i*7919)%5000] += uint64(i)
	}
	kernelSink += uint64(len(kernelMap))
}

// threadCPU is the calling thread's CPU time. It counts neither time the
// thread waited for a CPU nor, on a guest that accounts steal time, time
// the host ran something else on its vCPU.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostMeter samples the kernels on a goroutine of its own, locked to its
// thread, every meterEvery until stopped.
type hostMeter struct {
	stop, done chan struct{}

	// Written by the meter goroutine, read after done is closed.
	samples [][]float64 // per kernel, in milliseconds
	// used is the meter's own CPU time so far, updated after every sample.
	used atomic.Int64
}

// cpu is the meter's own CPU time so far.
func (m *hostMeter) cpu() time.Duration { return time.Duration(m.used.Load()) }

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{}), samples: make([][]float64, len(kernels))}
	go m.loop()
	return m
}

func (m *hostMeter) loop() {
	defer close(m.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	tick := time.NewTicker(meterEvery)
	defer tick.Stop()
	for {
		for i, k := range kernels {
			t := threadCPU()
			k.run()
			m.samples[i] = append(m.samples[i], float64(threadCPU()-t)/1e6)
		}
		m.used.Store(int64(threadCPU() - start))
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the meter, waits for it, and returns the host factor: the
// geometric mean over kernels of their median time over their reference
// time, above 1 when the host ran slow.
func (m *hostMeter) finish() float64 {
	close(m.stop)
	<-m.done
	logSum := 0.0
	for i, k := range kernels {
		logSum += math.Log(median(m.samples[i]) / k.refMS)
	}
	return math.Exp(logSum / float64(len(kernels)))
}
