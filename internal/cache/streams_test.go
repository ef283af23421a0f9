package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"hef/internal/isa"
)

// linearStream is one slot of the linear-scan stream table the indexed
// streamTable replaced: lastUsed stamps the access that last touched it.
type linearStream struct {
	nextLine uint64
	hits     int
	lastUsed uint64
}

// linearRef is a hierarchy whose stream prefetcher is the linear scan the
// indexed table replaced: the first matching slot in index order, and a new
// stream in the slot with the smallest lastUsed, ties to the lowest index.
// Its levels, counters, access clock and journal are an ordinary
// Hierarchy's; that Hierarchy's own stream table is never consulted.
type linearRef struct {
	h       *Hierarchy
	streams [streamTableSize]linearStream
	saved   [streamTableSize]linearStream // at begin
}

func newLinearRef(cpu *isa.CPU) *linearRef { return &linearRef{h: mustNew(cpu)} }

// access is Hierarchy.Access with the linear-scan prefetcher.
func (r *linearRef) access(addr uint64) (latency, levelHit int) {
	h := r.h
	line := addr >> h.lineShift
	h.accessNo++
	r.prefetch(line)
	switch {
	case h.l1.lookup(line):
		return h.l1.geom.Latency, 1
	case h.l2.lookup(line):
		h.l1.fill(line)
		return h.l2.geom.Latency, 2
	case h.llc.lookup(line):
		h.l2.fill(line)
		h.l1.fill(line)
		return h.llc.geom.Latency, 3
	default:
		h.memAccesses++
		h.llc.fill(line)
		h.l2.fill(line)
		h.l1.fill(line)
		return h.memLatency, 4
	}
}

// prefetch is the linear-scan runStreamPrefetcher.
func (r *linearRef) prefetch(line uint64) {
	h := r.h
	for i := range r.streams {
		st := &r.streams[i]
		if st.nextLine != line || st.nextLine == 0 {
			continue
		}
		st.nextLine = line + 1
		st.hits++
		st.lastUsed = h.accessNo
		if st.hits >= 2 {
			for k := uint64(1); k <= streamDepth; k++ {
				if lvl := h.installIfAbsent(line + k); lvl > 0 {
					h.hwPrefetchFills++
					if lvl == 4 {
						h.hwPrefetchMem++
					}
				}
			}
		}
		return
	}
	victim := 0
	for i := 1; i < len(r.streams); i++ {
		if r.streams[i].lastUsed < r.streams[victim].lastUsed {
			victim = i
		}
	}
	r.streams[victim] = linearStream{nextLine: line + 1, lastUsed: h.accessNo}
}

func (r *linearRef) reset() {
	r.h.Reset()
	r.streams = [streamTableSize]linearStream{}
}

// resetWarm is ResetWarm computed the long way, with no image.
func (r *linearRef) resetWarm(ranges []Range) {
	r.reset()
	lineBytes := uint64(1) << r.h.lineShift
	for _, rg := range ranges {
		for a := rg.Base &^ (lineBytes - 1); a < rg.Base+rg.Region; a += lineBytes {
			r.access(a)
		}
		r.h.ResetStats()
	}
}

func (r *linearRef) begin() {
	r.h.BeginJournal()
	r.saved = r.streams
}

func (r *linearRef) rollback() {
	r.h.RollbackJournal()
	r.streams = r.saved
}

// streamsDiff describes the first difference between the indexed table and
// the linear one, and returns "" when there is none: equal slots, an LRU
// list in (lastUsed, index) order with consistent links, and a filter that
// holds exactly each slot's bucket.
func streamsDiff(t *streamTable, ref *[streamTableSize]linearStream) string {
	for i := range ref {
		if got, want := t.slots[i], (stream{nextLine: ref[i].nextLine, hits: ref[i].hits}); got != want {
			return fmt.Sprintf("slot %d is %+v, want %+v", i, got, want)
		}
	}
	want := make([]uint8, streamTableSize)
	for i := range want {
		want[i] = uint8(i)
	}
	slices.SortStableFunc(want, func(a, b uint8) int {
		switch x, y := ref[a].lastUsed, ref[b].lastUsed; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
	var got []uint8
	prev := uint8(noSlot)
	for i := t.lru; i != noSlot && len(got) <= streamTableSize; i = t.newer[i] {
		if t.older[i] != prev {
			return fmt.Sprintf("slot %d links back to %d, want %d", i, t.older[i], prev)
		}
		got = append(got, i)
		prev = i
	}
	if !slices.Equal(got, want) || t.mru != prev {
		return fmt.Sprintf("LRU order %v (mru %d), want %v", got, t.mru, want)
	}
	for b := range t.byNext {
		var m uint16
		for i := range t.slots {
			if t.slots[i].nextLine&bucketMask == uint64(b) {
				m |= 1 << i
			}
		}
		if t.byNext[b] != m {
			return fmt.Sprintf("bucket %d holds slots %016b, want %016b", b, t.byNext[b], m)
		}
	}
	return ""
}

// TestStreamTableMatchesLinearScan drives a Hierarchy and linearRef with
// the same mixed traffic and compares their responses, counters, access
// clocks, stream tables and L1 contents after every access, and every
// level's contents often. The traffic covers strided streams interleaved
// with random L1-hitting lookups, two slots predicting the same line, 4 to
// 24 live streams (more than the table's 16 slots), software prefetches,
// journal windows rolled back mid-stream and committed, ResetWarm restores
// and Reset.
func TestStreamTableMatchesLinearScan(t *testing.T) {
	cpu := isa.XeonSilver4110()
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h, ref := mustNew(cpu), newLinearRef(cpu)
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			step := 0
			check := func(op string) {
				t.Helper()
				step++
				if got, want := h.Stats(), ref.h.Stats(); got != want {
					t.Fatalf("step %d (%s): Stats = %+v, linear scan %+v", step, op, got, want)
				}
				if got, want := h.AccessNo(), ref.h.AccessNo(); got != want {
					t.Fatalf("step %d (%s): AccessNo = %d, linear scan %d", step, op, got, want)
				}
				// Every level's every set is compared at each special
				// operation and every 256th step; L1 after every step.
				if d := levelsDiff(h, ref.h, !strings.HasPrefix(op, "access") || step%256 == 0); d != "" {
					t.Fatalf("step %d (%s): %s", step, op, d)
				}
				if d := streamsDiff(&h.streams, &ref.streams); d != "" {
					t.Fatalf("step %d (%s): stream table: %s", step, op, d)
				}
			}
			access := func(addr uint64) {
				t.Helper()
				gl, gv := h.Access(addr)
				wl, wv := ref.access(addr)
				if gl != wl || gv != wv {
					t.Fatalf("step %d: Access(%#x) = (%d, %d), linear scan (%d, %d)", step, addr, gl, gv, wl, wv)
				}
				check(fmt.Sprintf("access %#x", addr))
			}
			ranges := []Range{{Base: 1 << 32, Region: 96 << 10}, {Base: 5 << 32, Region: 16 << 10}}
			table := uint64(5 << 32) // 16 KB lookup table, L1-resident once warmed
			for round := 0; round < 6; round++ {
				switch round % 3 {
				case 0:
					h.ResetWarm(ranges)
					ref.resetWarm(ranges)
					check("ResetWarm")
				case 1:
					h.Reset()
					ref.reset()
					check("Reset")
				}
				// Strided streams (8-byte elements) interleaved with random
				// table lookups, the crc64 pattern.
				streams := 4 + 4*round
				pos := make([]uint64, streams)
				for i := range pos {
					pos[i] = uint64(i+2)<<34 + uint64(rng.IntN(1<<20))*8
				}
				inWindow, windowEnd := false, 0
				for n := 0; n < 3000; n++ {
					if !inWindow && rng.IntN(400) == 0 {
						h.BeginJournal()
						ref.begin()
						inWindow, windowEnd = true, n+1+rng.IntN(200)
					}
					switch k := rng.IntN(16); {
					case k < 6:
						i := rng.IntN(streams)
						access(pos[i])
						pos[i] += 8
					case k < 14:
						access(table + uint64(rng.IntN(16<<10)))
					case k < 15:
						// Two slots predicting the same line: a line
						// touched twice with no stream on it, then its
						// successor.
						a := 9<<34 + uint64(rng.IntN(1<<24))*64
						access(a)
						access(a)
						access(a + 64)
					default:
						a := uint64(rng.IntN(1<<30)) * 64
						if rng.IntN(2) == 0 {
							if gp, wp := h.Prefetch(a), ref.h.Prefetch(a); gp != wp {
								t.Fatalf("step %d: Prefetch(%#x) = %d, linear scan %d", step, a, gp, wp)
							}
							check(fmt.Sprintf("prefetch %#x", a))
						} else {
							access(a)
						}
					}
					if inWindow && n == windowEnd {
						inWindow = false
						if rng.IntN(2) == 0 {
							h.RollbackJournal()
							ref.rollback()
							check("RollbackJournal")
						} else {
							h.CommitJournal()
							ref.h.CommitJournal()
							check("CommitJournal")
						}
					}
				}
				if inWindow {
					h.RollbackJournal()
					ref.rollback()
					check("RollbackJournal")
				}
			}
		})
	}
}

// TestStreamTableLine0NeverMatches: an unused slot predicts line 0 in
// neither table, so an access to line 0 starts a stream instead of
// confirming one.
func TestStreamTableLine0NeverMatches(t *testing.T) {
	cpu := isa.XeonSilver4110()
	h, ref := mustNew(cpu), newLinearRef(cpu)
	for _, a := range []uint64{0, 0, 64, 0, 128, 192, 0} {
		h.Access(a)
		ref.access(a)
		if d := streamsDiff(&h.streams, &ref.streams); d != "" {
			t.Fatalf("after Access(%#x): %s", a, d)
		}
	}
	if got, want := h.Stats(), ref.h.Stats(); got != want {
		t.Fatalf("Stats = %+v, linear scan %+v", got, want)
	}
}

// BenchmarkHierarchyAccess measures one demand access through the
// hierarchy and its stream prefetcher: a sequential stream of 8-byte
// elements, random lines over 64 MiB, and the crc64 pattern (one strided
// stream interleaved with random lookups into an L1-resident 16 KiB table).
func BenchmarkHierarchyAccess(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(1, 2))
	streaming, random, mixed := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range streaming {
		streaming[i] = 1<<32 + uint64(i)*8
		random[i] = 2<<32 + uint64(rng.IntN(64<<20))
	}
	next := uint64(3 << 32)
	for i := range mixed {
		if i%4 == 0 {
			mixed[i] = next
			next += 8
		} else {
			mixed[i] = 4<<32 + uint64(rng.IntN(16<<10))
		}
	}
	for _, c := range []struct {
		name  string
		addrs []uint64
	}{{"streaming", streaming}, {"random", random}, {"mixed", mixed}} {
		b.Run(c.name, func(b *testing.B) {
			h := mustNew(isa.XeonSilver4110())
			h.Warm(4<<32, 16<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(c.addrs[i&(n-1)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
