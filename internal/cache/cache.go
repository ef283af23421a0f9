// Package cache implements the set-associative, LRU, three-level cache
// hierarchy the core simulator consults for every load, store, gather lane,
// and software prefetch. It provides the LLC-miss counters reported in the
// paper's Tables III–V and the latency inputs for the timing model.
//
// Every demand access also trains a stream-detecting hardware prefetcher
// (streams.go) whose table is indexed, so an access costs the same however
// many streams are live: a per-bucket slot mask on the predicted line
// finds a match without scanning the table, and an LRU list names the
// slot a new stream replaces.
package cache

import (
	"fmt"
	"slices"

	"hef/internal/isa"
)

// level is one cache level as an array of LRU sets, stored flat: set s
// occupies tags[s*Ways : s*Ways+lens[s]], most recent first. Fill never
// grows a backing array, so occupancy changes are pure length changes and
// the simulator's hot loop stays allocation-free even as random-address
// programs keep touching cold sets; clearing the level is a clear of lens.
type level struct {
	geom     isa.CacheGeom
	setShift uint
	setMask  uint64
	tags     []uint64
	lens     []uint8

	hits   uint64
	misses uint64

	// jr points at the owning hierarchy's journal; gens[s] stamps the last
	// journal window that saved set s (allocated on first use).
	jr   *journal
	gens []uint32
}

// maxWays is the most ways a level may have: a set's length is a uint8.
const maxWays = 255

func newLevel(g isa.CacheGeom) (*level, error) {
	if g.LineBytes <= 0 || g.SizeBytes <= 0 || g.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", g)
	}
	if g.Ways > maxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the supported %d", g.Ways, maxWays)
	}
	lines := g.SizeBytes / g.LineBytes
	numSets := lines / g.Ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a positive power of two (size=%d ways=%d line=%d)",
			numSets, g.SizeBytes, g.Ways, g.LineBytes)
	}
	shift := uint(0)
	for 1<<shift < g.LineBytes {
		shift++
	}
	return &level{
		geom:     g,
		setShift: shift,
		setMask:  uint64(numSets - 1),
		tags:     make([]uint64, numSets*g.Ways),
		lens:     make([]uint8, numSets),
	}, nil
}

// set returns set s's occupied tags, most recent first.
func (l *level) set(s uint64) []uint64 {
	base := int(s) * l.geom.Ways
	return l.tags[base : base+int(l.lens[s])]
}

// lookup probes the level; on a hit the line is moved to MRU position.
func (l *level) lookup(lineAddr uint64) bool {
	s := lineAddr & l.setMask
	set := l.set(s)
	for i, tag := range set {
		if tag == lineAddr {
			if i != 0 {
				if l.jr.open {
					l.jr.saveSet(l, s)
				}
				copy(set[1:i+1], set[:i])
				set[0] = lineAddr
			}
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// present probes the level without updating counters or LRU order.
func (l *level) present(lineAddr uint64) bool {
	for _, tag := range l.set(lineAddr & l.setMask) {
		if tag == lineAddr {
			return true
		}
	}
	return false
}

// fill installs the line as MRU, evicting LRU if the set is full.
func (l *level) fill(lineAddr uint64) {
	s := lineAddr & l.setMask
	if l.jr.open {
		l.jr.saveSet(l, s)
	}
	n := int(l.lens[s])
	if n < l.geom.Ways {
		n++
		l.lens[s] = uint8(n)
	}
	base := int(s) * l.geom.Ways
	set := l.tags[base : base+n]
	copy(set[1:], set)
	set[0] = lineAddr
}

func (l *level) reset() {
	clear(l.lens)
	l.hits, l.misses = 0, 0
}

// Stats is the per-level hit/miss counters plus memory-access count.
type Stats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64
	// MemAccesses counts demand fills from main memory (equals demand LLC
	// misses; prefetch fills are counted separately).
	MemAccesses uint64
	// PrefetchFills counts lines installed by software prefetch.
	PrefetchFills uint64
	// HWPrefetchFills counts lines installed by the hardware stream
	// prefetcher; HWPrefetchMem counts those that came from memory.
	HWPrefetchFills uint64
	HWPrefetchMem   uint64
	// SWPrefetchMem counts software-prefetch fills from memory.
	SWPrefetchMem uint64
}

// LevelName names a fill level as numbered by Hierarchy.Access and
// Hierarchy.Prefetch: 1 → "L1", 2 → "L2", 3 → "LLC", 4 → "DRAM". Level 0
// (non-memory operations, or a prefetch of an already-resident line) is "".
func LevelName(level int) string {
	switch level {
	case 1:
		return "L1"
	case 2:
		return "L2"
	case 3:
		return "LLC"
	case 4:
		return "DRAM"
	}
	return ""
}

// LLCMissesReported mirrors the perf LLC-misses event the paper collects:
// demand misses plus hardware-prefetcher fills from memory. Software
// prefetches are counted by a separate event and therefore excluded — the
// accounting under which Voila's prefetch-everything strategy shows its
// characteristically low LLC-miss counts.
func (s Stats) LLCMissesReported() uint64 { return s.MemAccesses + s.HWPrefetchMem }

// Hierarchy is a three-level inclusive cache hierarchy in front of main
// memory, with a stream-detecting hardware prefetcher.
type Hierarchy struct {
	l1, l2, llc *level
	memLatency  int
	lineShift   uint

	streams  streamTable
	accessNo uint64
	jr       journal
	img      image

	memAccesses     uint64
	prefetchFills   uint64
	hwPrefetchFills uint64
	hwPrefetchMem   uint64
	swPrefetchMem   uint64
}

// New builds a hierarchy from a CPU description.
func New(cpu *isa.CPU) (*Hierarchy, error) {
	l1, err := newLevel(cpu.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := newLevel(cpu.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	llc, err := newLevel(cpu.LLC)
	if err != nil {
		return nil, fmt.Errorf("LLC: %w", err)
	}
	shift := uint(0)
	for 1<<shift < cpu.L1D.LineBytes {
		shift++
	}
	h := &Hierarchy{l1: l1, l2: l2, llc: llc, memLatency: cpu.MemLatency, lineShift: shift}
	h.l1.jr, h.l2.jr, h.llc.jr = &h.jr, &h.jr, &h.jr
	h.streams.reset()
	return h, nil
}

// Access simulates a demand load or store of the byte at addr and returns
// the load-to-use latency in cycles. Stores are modelled as accesses too
// (write-allocate). Level returned: 1, 2, 3, or 4 for memory. Sequential
// streams are detected and run ahead by the hardware prefetcher, so steady
// streaming loads hit the L1 as they do on real parts.
func (h *Hierarchy) Access(addr uint64) (latency, levelHit int) {
	line := addr >> h.lineShift
	h.accessNo++
	h.runStreamPrefetcher(line)
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

// runStreamPrefetcher matches line against the stream table; on a confirmed
// stream it installs lines ahead of the demand access. A line no stream
// predicts starts a new stream predicting line+1.
func (h *Hierarchy) runStreamPrefetcher(line uint64) {
	t := &h.streams
	i, ok := t.match(line)
	if !ok {
		t.replace(line + 1)
		return
	}
	t.advance(i, line+1)
	t.slots[i].hits++
	if t.slots[i].hits >= 2 {
		for k := uint64(1); k <= streamDepth; k++ {
			if lvl := h.installIfAbsent(line + k); lvl > 0 {
				h.hwPrefetchFills++
				if lvl == 4 {
					h.hwPrefetchMem++
				}
			}
		}
	}
}

// installIfAbsent brings a line into all levels without touching the demand
// counters. It returns the level the fill came from (2 = L2, 3 = LLC,
// 4 = memory) or 0 when the line was already L1-resident.
func (h *Hierarchy) installIfAbsent(line uint64) (fromLevel int) {
	if h.l1.present(line) {
		return 0
	}
	fromLevel = 2
	if !h.l2.present(line) {
		fromLevel = 3
		if !h.llc.present(line) {
			h.llc.fill(line)
			fromLevel = 4
		}
		h.l2.fill(line)
	}
	h.l1.fill(line)
	return fromLevel
}

// Prefetch installs the line containing addr into every level without
// counting a demand miss; a later demand access then hits. It models a
// software prefetch instruction and returns the level the fill came from
// (0 = already L1-resident, 2 = L2, 3 = LLC, 4 = memory), which the core
// simulator uses to hold a line-fill buffer for the fill duration.
func (h *Hierarchy) Prefetch(addr uint64) (fromLevel int) {
	line := addr >> h.lineShift
	lvl := h.installIfAbsent(line)
	if lvl > 0 {
		h.prefetchFills++
		if lvl == 4 {
			h.swPrefetchMem++
		}
	}
	return lvl
}

// Warm touches every line of [base, base+size) so that subsequent accesses
// reflect a steady-state working set rather than a cold cache.
func (h *Hierarchy) Warm(base, size uint64) {
	lineBytes := uint64(1) << h.lineShift
	for a := base &^ (lineBytes - 1); a < base+size; a += lineBytes {
		h.Access(a)
	}
	h.ResetStats()
}

// Range is one region [Base, Base+Region) warmed into a hierarchy.
type Range struct {
	Base, Region uint64
}

// image is the hierarchy's state right after ResetWarm warmed ranges: per
// level, every set's length and the tags of the occupied sets in set
// order, plus the stream table and the access clock. The counters are zero
// after a warm, so they need no copy.
type image struct {
	ranges   []Range
	lens     [3][]uint8
	rows     [3][]uint64
	streams  streamTable
	accessNo uint64
}

// ResetWarm is Reset followed by Warm of each range in order. The
// hierarchy keeps an image of the state that produces; a later call with
// an equal range list restores the image in O(sets + warmed lines) instead
// of re-walking every region line by line. The warmed state depends only
// on the geometry and the ranges, so a restore is exact.
func (h *Hierarchy) ResetWarm(ranges []Range) {
	if len(ranges) > 0 && slices.Equal(ranges, h.img.ranges) {
		h.restore()
		return
	}
	h.Reset()
	for _, r := range ranges {
		h.Warm(r.Base, r.Region)
	}
	if len(ranges) > 0 {
		h.capture(ranges)
	}
}

// capture records the current state as the image of ranges, reusing the
// image's storage when it is large enough. Rows are sized exactly: growing
// them by appending would allocate about twice the warmed lines on every
// hierarchy that captures.
func (h *Hierarchy) capture(ranges []Range) {
	img := &h.img
	img.ranges = append(img.ranges[:0], ranges...)
	for i, l := range h.levels() {
		img.lens[i] = append(img.lens[i][:0], l.lens...)
		lines := 0
		for _, n := range l.lens {
			lines += int(n)
		}
		rows := img.rows[i][:0]
		if cap(rows) < lines {
			rows = make([]uint64, 0, lines)
		}
		for s, n := range l.lens {
			if n > 0 {
				rows = append(rows, l.set(uint64(s))...)
			}
		}
		img.rows[i] = rows
	}
	img.streams, img.accessNo = h.streams, h.accessNo
}

// restore overwrites the hierarchy with its image.
func (h *Hierarchy) restore() {
	img := &h.img
	for i, l := range h.levels() {
		copy(l.lens, img.lens[i])
		rows := img.rows[i]
		for s, n := range l.lens {
			if n > 0 {
				base := s * l.geom.Ways
				copy(l.tags[base:base+int(n)], rows[:n])
				rows = rows[n:]
			}
		}
	}
	h.setStats(Stats{})
	h.streams, h.accessNo = img.streams, img.accessNo
}

// levels lists the hierarchy's levels from L1 outwards.
func (h *Hierarchy) levels() [3]*level { return [3]*level{h.l1, h.l2, h.llc} }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats {
	return Stats{
		L1Hits: h.l1.hits, L1Misses: h.l1.misses,
		L2Hits: h.l2.hits, L2Misses: h.l2.misses,
		LLCHits: h.llc.hits, LLCMisses: h.llc.misses,
		MemAccesses:     h.memAccesses,
		PrefetchFills:   h.prefetchFills,
		HWPrefetchFills: h.hwPrefetchFills,
		HWPrefetchMem:   h.hwPrefetchMem,
		SWPrefetchMem:   h.swPrefetchMem,
	}
}

// ResetStats clears the counters but keeps cache contents and stream state.
func (h *Hierarchy) ResetStats() {
	h.l1.hits, h.l1.misses = 0, 0
	h.l2.hits, h.l2.misses = 0, 0
	h.llc.hits, h.llc.misses = 0, 0
	h.memAccesses, h.prefetchFills, h.hwPrefetchFills = 0, 0, 0
	h.hwPrefetchMem, h.swPrefetchMem = 0, 0
}

// AccessNo returns the number of demand accesses since the hierarchy was
// built or last Reset.
func (h *Hierarchy) AccessNo() uint64 { return h.accessNo }

// Reset clears contents, counters, prefetcher state, and the access clock,
// leaving the hierarchy indistinguishable from one just built by New. It
// keeps ResetWarm's image, which stays exact.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	h.llc.reset()
	h.streams.reset()
	h.accessNo = 0
	h.memAccesses, h.prefetchFills, h.hwPrefetchFills = 0, 0, 0
	h.hwPrefetchMem, h.swPrefetchMem = 0, 0
}
