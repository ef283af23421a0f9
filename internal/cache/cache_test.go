package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hef/internal/isa"
)

func TestAccessLevels(t *testing.T) {
	cpu := isa.XeonSilver4110()
	h := mustNew(cpu)

	lat, lvl := h.Access(0x1000)
	if lvl != 4 || lat != cpu.MemLatency {
		t.Errorf("cold access: level=%d lat=%d, want memory (4, %d)", lvl, lat, cpu.MemLatency)
	}
	lat, lvl = h.Access(0x1000)
	if lvl != 1 || lat != cpu.L1D.Latency {
		t.Errorf("hot access: level=%d lat=%d, want L1 (1, %d)", lvl, lat, cpu.L1D.Latency)
	}
	// Same line, different byte.
	_, lvl = h.Access(0x1004)
	if lvl != 1 {
		t.Errorf("same-line access: level=%d, want 1", lvl)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	cpu := isa.XeonSilver4110()
	h := mustNew(cpu)
	// Touch 9 lines mapping to the same L1 set (8-way): set stride is
	// 64 sets * 64B = 4KB.
	for i := uint64(0); i < 9; i++ {
		h.Access(i * 4096)
	}
	// First line evicted from L1 but resident in L2.
	lat, lvl := h.Access(0)
	if lvl != 2 || lat != cpu.L2.Latency {
		t.Errorf("evicted line: level=%d lat=%d, want L2 (2, %d)", lvl, lat, cpu.L2.Latency)
	}
}

func TestPrefetchHidesMiss(t *testing.T) {
	cpu := isa.XeonSilver4110()
	h := mustNew(cpu)
	before := h.Stats()
	h.Prefetch(0x9000)
	_, lvl := h.Access(0x9000)
	if lvl != 1 {
		t.Errorf("prefetched line should hit L1, got level %d", lvl)
	}
	st := h.Stats()
	if st.LLCMisses != before.LLCMisses {
		t.Errorf("prefetch counted as demand LLC miss: %d -> %d", before.LLCMisses, st.LLCMisses)
	}
	if st.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d, want 1", st.PrefetchFills)
	}
	if st.MemAccesses != 0 {
		t.Errorf("demand MemAccesses = %d, want 0", st.MemAccesses)
	}
}

func TestWarmMakesRegionResident(t *testing.T) {
	cpu := isa.XeonSilver4110()
	h := mustNew(cpu)
	h.Warm(1<<20, 16<<10)
	_, lvl := h.Access(1 << 20)
	if lvl != 1 {
		t.Errorf("warmed region should hit L1, got level %d", lvl)
	}
	if st := h.Stats(); st.L1Misses != 0 || st.L1Hits != 1 {
		t.Errorf("Warm should reset stats, got %+v", st)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := mustNew(isa.XeonSilver4110())
	h.Access(0x4000)
	h.ResetStats()
	_, lvl := h.Access(0x4000)
	if lvl != 1 {
		t.Errorf("ResetStats should keep contents, got level %d", lvl)
	}
	if st := h.Stats(); st.L1Hits != 1 || st.L1Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestResetClearsContents(t *testing.T) {
	h := mustNew(isa.XeonSilver4110())
	h.Access(0x4000)
	h.Reset()
	_, lvl := h.Access(0x4000)
	if lvl != 4 {
		t.Errorf("Reset should clear contents, got level %d", lvl)
	}
}

// TestResetMatchesNew: after traffic that fills every level, confirms
// prefetch streams and advances the access clock, Reset leaves a hierarchy
// indistinguishable from a fresh New — equal counters, access clock, set
// contents and prefetcher table, and identical responses to the same later
// traffic.
// Simulators reuse one hierarchy across measurements on exactly this
// guarantee.
func TestResetMatchesNew(t *testing.T) {
	cpu := isa.XeonSilver4110()
	used := mustNew(cpu)
	used.Warm(1<<20, 64<<10)
	for a := uint64(0); a < 256<<10; a += 64 {
		used.Access(1<<30 + a)
	}
	for i := uint64(0); i < 4096; i++ {
		used.Access((i * 0x9e3779b97f4a7c15) % (1 << 36))
		used.Prefetch(i * 4096)
	}
	if used.AccessNo() == 0 {
		t.Fatal("traffic did not advance the access clock")
	}
	used.Reset()
	fresh := mustNew(cpu)

	addrs := []uint64{0, 1 << 20, 1<<20 + 4096, 1 << 30, 1<<30 + 64<<10, 0x9e3779b97f4a7c15 % (1 << 36)}
	check := func(when string) {
		t.Helper()
		if got, want := used.Stats(), fresh.Stats(); got != want {
			t.Errorf("%s: Stats after Reset = %+v, fresh = %+v", when, got, want)
		}
		if got, want := used.AccessNo(), fresh.AccessNo(); got != want {
			t.Errorf("%s: AccessNo after Reset = %d, fresh = %d", when, got, want)
		}
		if d := stateDiff(used, fresh); d != "" {
			t.Errorf("%s: state after Reset differs from a fresh hierarchy's: %s", when, d)
		}
	}
	check("after Reset")
	for i, a := range append(addrs, addrs...) {
		gl, gv := used.Access(a)
		wl, wv := fresh.Access(a)
		if gl != wl || gv != wv {
			t.Fatalf("access %d (%#x): reset hierarchy (%d, %d), fresh (%d, %d)", i, a, gl, gv, wl, wv)
		}
	}
	check("after replayed traffic")
}

// TestResetWarmMatchesWarm: a hierarchy that ResetWarm restores from its
// image is indistinguishable from New followed by Warm of the same ranges —
// equal counters, access clock, set contents and prefetcher table, and
// identical responses to later traffic. Two range lists are used
// alternately; each is warmed, disturbed by traffic that evicts warmed lines
// and fills unwarmed sets, then passed again (as a fresh slice with equal
// contents) so that the second call restores.
func TestResetWarmMatchesWarm(t *testing.T) {
	cpu := isa.XeonSilver4110()
	lists := [][]Range{
		{{Base: 1 << 32, Region: 256 << 10}, {Base: 2<<32 + 1<<20, Region: 64 << 10}},
		{{Base: 3 << 32, Region: 384 << 10}},
	}
	// traffic streams through lines outside every warmed set of the LLC,
	// piles lines into set 0 of L2 and LLC (which both lists warm) until the
	// warmed ones are evicted, and scatters accesses and prefetches.
	var traffic []uint64
	for a := uint64(0); a < 192<<10; a += 64 {
		traffic = append(traffic, 7<<32+640<<10+a)
	}
	for k := uint64(1); k <= 24; k++ {
		traffic = append(traffic, 9<<32+k<<20)
	}
	for i := uint64(0); i < 2048; i++ {
		traffic = append(traffic, (i*0x9e3779b97f4a7c15)%(1<<36))
	}

	h := mustNew(cpu)
	check := func(when string, ranges []Range) {
		t.Helper()
		want := mustNew(cpu)
		var addrs []uint64
		for _, r := range ranges {
			want.Warm(r.Base, r.Region)
			for a := r.Base; a < r.Base+r.Region; a += 64 {
				addrs = append(addrs, a)
			}
		}
		if got, exp := h.Stats(), want.Stats(); got != exp {
			t.Errorf("%s: Stats = %+v, want %+v", when, got, exp)
		}
		if got, exp := h.AccessNo(), want.AccessNo(); got != exp {
			t.Errorf("%s: AccessNo = %d, want %d", when, got, exp)
		}
		if d := stateDiff(h, want); d != "" {
			t.Errorf("%s: state differs from New+Warm: %s", when, d)
		}
		for i, a := range append(traffic, addrs...) {
			gl, gv := h.Access(a)
			wl, wv := want.Access(a)
			if gl != wl || gv != wv {
				t.Fatalf("%s: access %d (%#x): (%d, %d), New+Warm (%d, %d)", when, i, a, gl, gv, wl, wv)
			}
		}
		if got, exp := h.Stats(), want.Stats(); got != exp {
			t.Errorf("%s: Stats after later traffic = %+v, want %+v", when, got, exp)
		}
	}
	for round := 0; round < 2; round++ {
		for li, ranges := range lists {
			h.ResetWarm(ranges)
			check(fmt.Sprintf("round %d list %d warmed", round, li), ranges)
			for i, a := range traffic {
				h.Access(a)
				if i%3 == 0 {
					h.Prefetch(a + 4096)
				}
			}
			h.ResetWarm(append([]Range(nil), ranges...))
			check(fmt.Sprintf("round %d list %d restored", round, li), ranges)
		}
	}
}

func TestInvalidGeometry(t *testing.T) {
	cpu := isa.XeonSilver4110()
	cpu.L1D.Ways = 3 // 32KB/64B/3 is not a power-of-two set count
	if _, err := New(cpu); err == nil {
		t.Error("New should reject non-power-of-two set counts")
	}
	cpu = isa.XeonSilver4110()
	cpu.L2.SizeBytes = 0
	if _, err := New(cpu); err == nil {
		t.Error("New should reject zero-size caches")
	}
	cpu = isa.XeonSilver4110()
	cpu.L1D.Ways = 256 // two sets, but a set's length must fit a uint8
	if _, err := New(cpu); err == nil {
		t.Error("New should reject more than 255 ways")
	}
}

// Property: hit+miss counters per level always equal the number of lookups
// reaching that level, and a second access to any address hits L1.
func TestAccessIdempotentProperty(t *testing.T) {
	h := mustNew(isa.XeonSilver4110())
	f := func(addr uint64) bool {
		addr %= 1 << 40
		h.Access(addr)
		_, lvl := h.Access(addr)
		return lvl == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: demand LLC misses equal demand memory accesses when no
// prefetches are issued.
func TestLLCMissEqualsMemAccess(t *testing.T) {
	h := mustNew(isa.XeonSilver4110())
	f := func(seeds []uint64) bool {
		h.Reset()
		for _, s := range seeds {
			h.Access(s % (1 << 38))
		}
		st := h.Stats()
		return st.LLCMisses == st.MemAccesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// stateDiff describes the first difference between two hierarchies' contents
// — every set of every level, tags in LRU order — or their whole stream
// tables (slots, LRU order and filter), and returns "" when there is none.
// Hierarchies that also share counters and access clock answer every later
// access identically.
func stateDiff(got, want *Hierarchy) string {
	if d := levelsDiff(got, want, true); d != "" {
		return d
	}
	if got.streams != want.streams {
		return fmt.Sprintf("stream table %+v, want %+v", got.streams, want.streams)
	}
	return ""
}

// levelsDiff is stateDiff for the cache levels alone: L1, and L2 and the LLC
// too when all is set.
func levelsDiff(got, want *Hierarchy, all bool) string {
	gl, wl := got.levels(), want.levels()
	n := 1
	if all {
		n = len(gl)
	}
	for i := range gl[:n] {
		for s := range gl[i].lens {
			if g, w := gl[i].set(uint64(s)), wl[i].set(uint64(s)); !slices.Equal(g, w) {
				return fmt.Sprintf("level %d set %d holds %#x, want %#x", i+1, s, g, w)
			}
		}
	}
	return ""
}

// mustNew is the test-side replacement for the removed production MustNew.
func mustNew(cpu *isa.CPU) *Hierarchy {
	h, err := New(cpu)
	if err != nil {
		panic(err)
	}
	return h
}
