// Package fpenc holds the canonical byte-encoding primitives of the
// measurement memo keys in internal/memo, whose program component
// internal/uarch encodes (Program.AppendFingerprint). It is dependency-free
// so the hot packages can use it without import cycles.
//
// The encoding is fixed: integers are little-endian uint64 (signed values go
// through int64 first), floats are their IEEE-754 bit patterns, booleans are
// one byte, and strings are length-prefixed. Changing any of these would
// silently invalidate every persisted memo store, so their bytes are pinned
// by TestFingerprintGolden in internal/memo.
//
// An encoding streams: once the buffer passes a few KB, Spill hashes it into
// a running SHA-256 and empties it, so keying a program of thousands of
// instructions holds a few KB rather than its whole encoding. Sum gives the
// same key whether or not the encoding spilled.
package fpenc

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// spillBytes is the buffer length at which Spill hashes the buffer away.
const spillBytes = 2 << 10

// E accumulates a canonical encoding. Strings are length-prefixed and slices
// count-prefixed by callers, so adjacent variable-length fields can never
// alias each other's bytes. Buf holds the bytes not yet spilled.
type E struct {
	Buf []byte
	// h is the running SHA-256 of the spilled bytes, nil until the first
	// spill.
	h hash.Hash
}

// Spill hashes the buffer into the running digest once it holds spillBytes
// or more. Encoders call it once per record (per instruction of a program),
// not per field, so the field appenders stay branch-free.
func (e *E) Spill() {
	if len(e.Buf) >= spillBytes {
		e.spill()
	}
}

func (e *E) spill() {
	if e.h == nil {
		e.h = sha256.New()
	}
	e.h.Write(e.Buf) // a hash.Hash Write never returns an error
	e.Buf = e.Buf[:0]
}

// Sum is the 128-bit content key of everything encoded so far: the first
// half of the SHA-256 of the spilled bytes followed by Buf.
func (e *E) Sum() (k [16]byte) {
	if e.h == nil {
		sum := sha256.Sum256(e.Buf)
		copy(k[:], sum[:])
		return k
	}
	e.spill()
	// The emptied buffer has room for the digest, which keeps Sum from
	// allocating one.
	copy(k[:], e.h.Sum(e.Buf[:0]))
	return k
}

// U64 appends v little-endian.
func (e *E) U64(v uint64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v)
}

// Int appends v as uint64(int64(v)).
func (e *E) Int(v int) { e.U64(uint64(int64(v))) }

// F64 appends the IEEE-754 bit pattern of v.
func (e *E) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a single 0/1 byte.
func (e *E) Bool(v bool) {
	if v {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Str appends len(s) then the bytes of s.
func (e *E) Str(s string) {
	e.U64(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}
