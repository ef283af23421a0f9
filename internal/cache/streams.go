package cache

import "math/bits"

// streamTableSize and streamDepth configure the hardware prefetcher: up to
// streamTableSize concurrent streams, running streamDepth lines ahead once a
// stream is confirmed (two consecutive lines), like the Skylake L2 streamer.
const (
	streamTableSize = 16
	streamDepth     = 8
)

// streamBuckets is the number of nextLine buckets of the stream table's
// filter; bucketMask selects a line's bucket from its low bits.
const (
	streamBuckets = 64
	bucketMask    = streamBuckets - 1
	// noSlot ends the table's LRU list.
	noSlot = streamTableSize
)

// stream tracks one sequential access stream for the hardware prefetcher:
// the line it predicts next (0 while the slot is unused) and how many
// accesses have confirmed it.
type stream struct {
	nextLine uint64
	hits     int
}

// streamTable is the prefetcher's stream slots with two indexes, both kept
// in the value so that copying it copies the whole prefetcher state:
//
//   - byNext[b] is the set of slots (bit i for slot i) whose nextLine falls
//     in bucket b. An access scans only its bucket's slots, in index order,
//     so the first match is the first matching slot in index order, and an
//     access whose bucket is empty scans nothing.
//   - an LRU list of every slot, least recently touched first, threaded
//     through older/newer. It starts in index order, so its head is the slot
//     with the oldest touch, ties (never-touched slots) to the lowest index.
//     A new stream replaces the head.
type streamTable struct {
	slots        [streamTableSize]stream
	byNext       [streamBuckets]uint16
	older, newer [streamTableSize]uint8
	lru, mru     uint8
}

// reset empties every slot and restarts the LRU list in index order.
func (t *streamTable) reset() {
	*t = streamTable{lru: 0, mru: streamTableSize - 1}
	t.byNext[0] = 1<<streamTableSize - 1
	for i := range t.older {
		t.older[i] = uint8(i) - 1
		t.newer[i] = uint8(i) + 1
	}
	t.older[0] = noSlot
}

// match returns the first slot, in index order, predicting line. Unused
// slots (nextLine 0) never match.
func (t *streamTable) match(line uint64) (int, bool) {
	if line == 0 {
		return 0, false
	}
	for m := t.byNext[line&bucketMask]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		if t.slots[i].nextLine == line {
			return i, true
		}
	}
	return 0, false
}

// advance makes slot i predict line next, and marks it most recently
// touched.
func (t *streamTable) advance(i int, line uint64) {
	st := &t.slots[i]
	t.byNext[st.nextLine&bucketMask] &^= 1 << i
	t.byNext[line&bucketMask] |= 1 << i
	st.nextLine = line
	t.touch(uint8(i))
}

// replace starts a new stream predicting line in the least recently touched
// slot.
func (t *streamTable) replace(line uint64) {
	i := int(t.lru)
	t.slots[i].hits = 0
	t.advance(i, line)
}

// touch moves slot i to the most recently touched end of the LRU list.
func (t *streamTable) touch(i uint8) {
	if i == t.mru {
		return
	}
	o, n := t.older[i], t.newer[i]
	if i == t.lru {
		t.lru = n
	} else {
		t.newer[o] = n
	}
	t.older[n] = o
	t.older[i], t.newer[i] = t.mru, noSlot
	t.newer[t.mru] = i
	t.mru = i
}
