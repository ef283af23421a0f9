package cache

// Mutation journal.
//
// The journal gives the core simulator's steady-replay fast path a cheap
// undo: it opens a window, lets the replay issue real Access/Prefetch calls,
// and — when a response deviates from the recorded period — rolls the
// hierarchy back to the window's start as if those calls never happened.
// Only the first mutation of each cache set inside a window saves that set's
// prior contents (a per-set generation stamp makes the first-touch check one
// compare), and the scalar state (counters, stream table, access clock) is a
// single struct copy, so a committed window costs little more than the
// accesses themselves.

// journalEntry records one set's contents before its first mutation inside
// the open window. The tags live in the journal's shared arena.
type journalEntry struct {
	lv  *level
	set uint64
	off int32
	n   int32
}

// journal is the undo log of one open window.
type journal struct {
	open bool
	gen  uint32

	entries []journalEntry
	tags    []uint64 // arena backing every entry's saved contents

	// Scalar state at BeginJournal, restored wholesale on rollback.
	streams  streamTable
	accessNo uint64
	stats    Stats
}

// saveSet records set s of level l before its first mutation in the window.
// Hot path: the generation compare rejects already-saved sets in one load.
func (j *journal) saveSet(l *level, s uint64) {
	if l.gens == nil {
		l.gens = make([]uint32, len(l.lens))
	} else if l.gens[s] == j.gen {
		return
	}
	l.gens[s] = j.gen
	set := l.set(s)
	j.entries = append(j.entries, journalEntry{lv: l, set: s, off: int32(len(j.tags)), n: int32(len(set))})
	j.tags = append(j.tags, set...)
}

// BeginJournal opens an undo window. Every subsequent mutation is
// journaled until CommitJournal or RollbackJournal closes the window.
// Windows do not nest.
func (h *Hierarchy) BeginJournal() {
	j := &h.jr
	j.gen++
	if j.gen == 0 {
		// Generation counter wrapped: stale stamps could alias, so clear them.
		for _, l := range h.levels() {
			for i := range l.gens {
				l.gens[i] = 0
			}
		}
		j.gen = 1
	}
	j.entries = j.entries[:0]
	j.tags = j.tags[:0]
	j.streams = h.streams
	j.accessNo = h.accessNo
	j.stats = h.Stats()
	j.open = true
}

// CommitJournal closes the window keeping every mutation.
func (h *Hierarchy) CommitJournal() {
	h.jr.open = false
}

// RollbackJournal closes the window and restores the hierarchy to its state
// at BeginJournal.
func (h *Hierarchy) RollbackJournal() {
	j := &h.jr
	j.open = false
	h.streams = j.streams
	h.accessNo = j.accessNo
	h.setStats(j.stats)
	for i := range j.entries {
		e := &j.entries[i]
		base := int(e.set) * e.lv.geom.Ways
		copy(e.lv.tags[base:base+int(e.n)], j.tags[e.off:e.off+e.n])
		e.lv.lens[e.set] = uint8(e.n)
	}
}

// setStats overwrites every counter from a snapshot.
func (h *Hierarchy) setStats(s Stats) {
	h.l1.hits, h.l1.misses = s.L1Hits, s.L1Misses
	h.l2.hits, h.l2.misses = s.L2Hits, s.L2Misses
	h.llc.hits, h.llc.misses = s.LLCHits, s.LLCMisses
	h.memAccesses = s.MemAccesses
	h.prefetchFills = s.PrefetchFills
	h.hwPrefetchFills = s.HWPrefetchFills
	h.hwPrefetchMem = s.HWPrefetchMem
	h.swPrefetchMem = s.SWPrefetchMem
}
