package memo

import (
	"testing"

	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

func testProg(name string, seed uint64, region uint64) *uarch.Program {
	ld := isa.MustScalar("movq")
	add := isa.MustScalar("add")
	return &uarch.Program{Name: name, NumRegs: 4, ElemsPerIter: 1, Body: []uarch.UOp{
		{Instr: ld, Dst: 2, Srcs: [3]int16{uarch.NoReg, uarch.NoReg, uarch.NoReg},
			Addr: uarch.AddrSpec{Kind: uarch.AddrRandom, Base: 1 << 30, Region: region, Seed: seed}},
		{Instr: add, Dst: 3, Srcs: [3]int16{2, 0, uarch.NoReg}},
	}}
}

func baseKey() Key {
	return Fingerprint(ProtoEvaluator, isa.XeonSilver4110(), nil, testProg("p", 1, 1<<20), 1024,
		[]WarmRange{{Base: 1 << 30, Region: 1 << 20}})
}

// TestFingerprintStable: the same semantic inputs, independently
// constructed, produce the same key.
func TestFingerprintStable(t *testing.T) {
	if baseKey() != baseKey() {
		t.Fatal("identical inputs produced different fingerprints")
	}
}

// TestFingerprintSeparates mutates one input dimension at a time; every
// mutation must move the key. These are the sharing rules the tentpole
// relies on: perturbation seeds, widths, programs, iteration counts, and
// warm sets must never alias.
func TestFingerprintSeparates(t *testing.T) {
	base := baseKey()
	cpu := isa.XeonSilver4110()
	prog := func() *uarch.Program { return testProg("p", 1, 1<<20) }
	warm := []WarmRange{{Base: 1 << 30, Region: 1 << 20}}

	// A zero-rate perturbation is the identity: its seed must NOT separate.
	if k := Fingerprint(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 42}, prog(), 1024, warm); k != base {
		t.Error("zero-rate perturbation fingerprints differently from nil")
	}

	cases := map[string]Key{
		"protocol":          Fingerprint(ProtoStage, cpu, nil, prog(), 1024, warm),
		"cpu model":         Fingerprint(ProtoEvaluator, isa.XeonGold6240R(), nil, prog(), 1024, warm),
		"perturb seed":      Fingerprint(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.1}, prog(), 1024, warm),
		"perturb rate":      Fingerprint(ProtoEvaluator, cpu, &uarch.Perturb{Seed: 7, LatJitter: 0.2}, prog(), 1024, warm),
		"program name":      Fingerprint(ProtoEvaluator, cpu, nil, testProg("q", 1, 1<<20), 1024, warm),
		"program addr seed": Fingerprint(ProtoEvaluator, cpu, nil, testProg("p", 2, 1<<20), 1024, warm),
		"program region":    Fingerprint(ProtoEvaluator, cpu, nil, testProg("p", 1, 1<<21), 1024, warm),
		"iters":             Fingerprint(ProtoEvaluator, cpu, nil, prog(), 2048, warm),
		"warm set":          Fingerprint(ProtoEvaluator, cpu, nil, prog(), 1024, nil),
		"warm region":       Fingerprint(ProtoEvaluator, cpu, nil, prog(), 1024, []WarmRange{{Base: 1 << 30, Region: 1 << 21}}),
	}
	seen := map[Key]string{base: "base"}
	for label, k := range cases {
		if prev, dup := seen[k]; dup {
			t.Errorf("%q fingerprints identically to %q", label, prev)
		}
		seen[k] = label
	}

	// The perturb-seed rule, specifically: distinct sensitivity trials must
	// each get their own entries.
	seeds := map[Key]uint64{}
	for s := uint64(0); s < 200; s++ {
		p := &uarch.Perturb{Seed: s, LatJitter: 0.05, OccJitter: 0.05}
		k := Fingerprint(ProtoEvaluator, cpu, p, prog(), 1024, warm)
		if prev, dup := seeds[k]; dup {
			t.Fatalf("perturb seeds %d and %d share a fingerprint", prev, s)
		}
		seeds[k] = s
	}
}

// TestFingerprintSeparatesWidth: the same template translated at different
// vector widths yields different programs — the width is also encoded
// directly, so even width-only differences separate.
func TestFingerprintSeparatesWidth(t *testing.T) {
	cpu := isa.XeonSilver4110()
	a := testProg("p", 1, 1<<20)
	b := testProg("p", 1, 1<<20)
	b.VectorWidth = isa.W512
	if Fingerprint(ProtoEvaluator, cpu, nil, a, 1024, nil) == Fingerprint(ProtoEvaluator, cpu, nil, b, 1024, nil) {
		t.Fatal("programs differing only in VectorWidth share a fingerprint")
	}
}

// TestCacheRoundTrip: Put/Get semantics, counter bookkeeping, and the
// deep-copy isolation that lets callers scale results in place.
func TestCacheRoundTrip(t *testing.T) {
	c := NewCache()
	k := baseKey()
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	orig := &uarch.Result{Name: "r", Cycles: 100, Instructions: 50, PortBusy: []uint64{1, 2, 3}}
	c.Put(k, orig)
	orig.Cycles = 999
	orig.PortBusy[0] = 999

	got, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Cycles != 100 || got.PortBusy[0] != 1 {
		t.Fatalf("Put did not deep-copy: got cycles=%d portbusy=%v", got.Cycles, got.PortBusy)
	}
	got.PortBusy[1] = 999
	again, _ := c.Get(k)
	if again.PortBusy[1] != 2 {
		t.Fatal("Get did not deep-copy")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if r := st.HitRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", r)
	}
}

// TestNilCache: a nil cache is inert, never panics, never hits.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(baseKey()); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(baseKey(), &uarch.Result{})
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// FuzzFingerprint hammers the canonical encoding for aliasing: two
// fingerprints built from fuzzer-chosen field values must differ whenever
// any field differs. A 128-bit hash makes accidental collisions
// unobservable, so any failure here is an encoding bug (adjacent fields
// bleeding into each other).
func FuzzFingerprint(f *testing.F) {
	f.Add("p", "p", uint64(1), uint64(1), uint64(1<<20), uint64(1<<20), int64(64), int64(64), false, false)
	f.Add("p", "q", uint64(1), uint64(2), uint64(1<<20), uint64(1<<21), int64(64), int64(128), true, false)
	f.Add("ab", "a", uint64(0), uint64(0), uint64(8), uint64(8), int64(1), int64(1), true, true)
	f.Fuzz(func(t *testing.T, name1, name2 string, seed1, seed2, region1, region2 uint64, iters1, iters2 int64, perturb1, perturb2 bool) {
		if iters1 <= 0 || iters2 <= 0 {
			t.Skip()
		}
		cpu := isa.XeonSilver4110()
		var p1, p2 *uarch.Perturb
		if perturb1 {
			p1 = &uarch.Perturb{Seed: seed1, LatJitter: 0.1}
		}
		if perturb2 {
			p2 = &uarch.Perturb{Seed: seed2, LatJitter: 0.1}
		}
		k1 := Fingerprint(ProtoEvaluator, cpu, p1, testProg(name1, seed1, region1), iters1, nil)
		k2 := Fingerprint(ProtoEvaluator, cpu, p2, testProg(name2, seed2, region2), iters2, nil)
		same := name1 == name2 && seed1 == seed2 && region1 == region2 &&
			iters1 == iters2 && perturb1 == perturb2
		if same && k1 != k2 {
			t.Fatalf("identical inputs produced different keys")
		}
		if !same && k1 == k2 {
			t.Fatalf("distinct inputs collided: (%q,%d,%d,%d,%v) vs (%q,%d,%d,%d,%v)",
				name1, seed1, region1, iters1, perturb1, name2, seed2, region2, iters2, perturb2)
		}
	})
}

// TestCacheCountersConcurrent hammers Get, Link, GetLinked and
// LinkedSeconds from many goroutines and checks the hit/miss counters stay
// exact. Runs under -race in CI: the counters are read by the telemetry
// poller while workers are mid-Get, so they must be atomics, not plain
// fields.
func TestCacheCountersConcurrent(t *testing.T) {
	c := NewCache()
	k := baseKey()
	c.Put(k, &uarch.Result{Cycles: 1})
	var miss Key
	miss[0] = 0xff

	// Parallel search forks share one cache, so links are written and read
	// concurrently too; a linked lookup counts one hit.
	const workers, per = 8, 500
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var prefix Key
			prefix[0] = byte(w)
			node := translator.Node{V: w, S: 1, P: 1}
			c.Link(prefix, node, k)
			for i := 0; i < per; i++ {
				c.Get(k)
				c.Get(miss)
				c.GetLinked(prefix, node)
				c.LinkedSeconds(prefix, node)
				c.Stats() // concurrent reader — the race the test guards against
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	s := c.Stats()
	if s.Hits != 3*workers*per || s.Misses != workers*per {
		t.Fatalf("counters hits=%d misses=%d, want %d and %d", s.Hits, s.Misses, 3*workers*per, workers*per)
	}
	if got, want := s.HitRate(), 3.0/4; got != want {
		t.Fatalf("hit rate = %g, want %g", got, want)
	}
	h, m := Totals()
	if h < workers*per || m < workers*per {
		t.Fatalf("package totals hits=%d misses=%d, want >= %d each", h, m, workers*per)
	}
}
