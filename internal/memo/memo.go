// Package memo is a content-addressed cache of simulator measurements. A
// measurement under the evaluator protocol — reset hierarchy, warm the
// LLC-resident regions, one throwaway run, one measured run — is a pure
// function of the machine model, the fault-injection model, the translated
// program, the iteration count, and the warmed regions, so its Result can
// be reused wherever the same fingerprint recurs: the per-flavour
// measurements hefopt re-runs after each search, sensitivity trials whose
// perturbed machine coincides, and SSB stages sharing an operator across
// queries and engines.
//
// A Plan owns the protocol: the one value both keys a measurement (Key)
// and runs it (Measure). Measure resets the simulator's hierarchy first, and
// a reset hierarchy is indistinguishable from a freshly built one, so a
// caller may reuse one simulator for every measurement it makes. The reset
// and the warm are one Hierarchy.ResetWarm: a plan that warms the same
// ranges as the simulator's previous one — every evaluation of a search —
// restores the hierarchy's warmed image instead of re-walking the regions.
//
// Keys are 128 bits of SHA-256 over a canonical length-prefixed encoding of
// every semantic input, streamed through internal/fpenc so a large program
// is hashed a few KB at a time. Nothing is keyed by pointer identity or by
// name alone: two CPU models with the same name but different geometry (a
// perturbed clone, say) fingerprint differently, as do programs differing
// in any instruction, operand, or address-stream field.
//
// Computing a measurement key needs the translated program, and translating
// costs far more than the lookup it feeds. A Cache therefore also keeps an
// in-memory link index from TranslationKey — a fingerprint of the
// translator's inputs — to the measurement key those inputs produced, so a
// repeated evaluation finds its Result without translating at all. Within a
// search only the node, width and test size vary from key to key, so each
// evaluator keys through a TranslationKeyer, which hashes the rest —
// machine model, perturbation and template, about 1.8 KB — once.
package memo

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"slices"
	"sync"
	"sync/atomic"

	"hef/internal/cache"
	"hef/internal/fpenc"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Key is a 128-bit content fingerprint.
type Key [16]byte

// Protocol distinguishes the measurement protocols that may share one
// cache. The same (machine, program, iters, warm) inputs yield different
// Results under different protocols — a throwaway settling run changes the
// stream-prefetcher state the measured run sees — so the protocol is part
// of the fingerprint.
type Protocol uint8

const (
	// ProtoEvaluator is SimEvaluator.Run: reset the hierarchy, warm the
	// LLC-resident regions, one throwaway run, one measured run.
	ProtoEvaluator Protocol = iota + 1
	// ProtoStage is the experiment harness's stage timing: a reset
	// hierarchy, warm (restored from the warmed image when a worker's
	// consecutive stages warm the same ranges), and a single measured run.
	ProtoStage
)

// WarmRange is one region warmed into the hierarchy before measuring.
type WarmRange = cache.Range

// enc is the canonical encoding accumulator (internal/fpenc) that
// Program.AppendFingerprint also writes to; the method aliases keep this
// package's encoders readable.
type enc struct {
	fpenc.E
}

func (e *enc) u64(v uint64)   { e.U64(v) }
func (e *enc) i(v int)        { e.Int(v) }
func (e *enc) f(v float64)    { e.F64(v) }
func (e *enc) boolean(v bool) { e.Bool(v) }
func (e *enc) str(s string)   { e.Str(s) }

func (e *enc) cpu(c *isa.CPU) {
	e.str(c.Name)
	e.i(len(c.Ports))
	for i := range c.Ports {
		p := &c.Ports[i]
		e.str(p.Name)
		for _, a := range p.Accepts {
			e.boolean(a)
		}
	}
	e.i(len(c.Vec512Ports))
	for _, p := range c.Vec512Ports {
		e.i(p)
	}
	e.i(c.DecodeWidth)
	e.i(c.RetireWidth)
	e.i(c.ROBSize)
	e.i(c.RSSize)
	e.i(c.LoadQueue)
	e.i(c.StoreQueue)
	e.i(c.LineFillBuffers)
	e.i(c.GPRegs)
	e.i(c.VecRegs)
	for _, g := range []isa.CacheGeom{c.L1D, c.L2, c.LLC} {
		e.i(g.SizeBytes)
		e.i(g.Ways)
		e.i(g.LineBytes)
		e.i(g.Latency)
	}
	e.i(c.MemLatency)
	e.i(int(c.VecWidth))
	e.f(c.Freq.ScalarGHz)
	e.f(c.Freq.AVX2GHz)
	e.f(c.Freq.AVX512GHz)
	e.f(c.Freq.AVX512HeavyGHz)
	e.f(c.Freq.UncoreGovPenalty)
	e.f(c.Freq.MinGHz)
}

// normPerturb is p as a value, with nil and the identity both the zero
// Perturb: a perturbation with every rate zero is the identity no matter
// its seed, so it is keyed as absent, and sensitivity trials share entries
// exactly when the perturbed machine coincides with the nominal one.
func normPerturb(p *uarch.Perturb) uarch.Perturb {
	if p == nil || p.LatJitter == 0 && p.OccJitter == 0 && p.CacheJitter == 0 &&
		p.FreqJitter == 0 && p.PortFaultRate == 0 {
		return uarch.Perturb{}
	}
	return *p
}

func (e *enc) perturb(p *uarch.Perturb) {
	v := normPerturb(p)
	if v == (uarch.Perturb{}) {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.u64(v.Seed)
	e.f(v.LatJitter)
	e.f(v.OccJitter)
	e.f(v.CacheJitter)
	e.f(v.FreqJitter)
	e.f(v.PortFaultRate)
}

// Fingerprint computes the content key of one measurement under the given
// protocol. warm lists the regions warmed before the runs, in warming
// order. The program component is encoded by Program.AppendFingerprint.
func Fingerprint(proto Protocol, cpu *isa.CPU, p *uarch.Perturb, prog *uarch.Program, iters int64, warm []WarmRange) Key {
	var e enc
	e.Buf = make([]byte, 0, 512)
	e.Buf = append(e.Buf, byte(proto))
	e.cpu(cpu)
	e.perturb(p)
	prog.AppendFingerprint(&e.E)
	e.u64(uint64(iters))
	e.i(len(warm))
	for _, w := range warm {
		e.u64(w.Base)
		e.u64(w.Region)
	}
	return Key(e.Sum())
}

// Plan is one measurement: the protocol, the translated program, its
// iteration count, and the regions warmed before the runs, in warming order.
type Plan struct {
	Proto Protocol
	Prog  *uarch.Program
	Iters int64
	Warm  []WarmRange
}

// NewPlan plans the measurement under proto of out, the translation of
// tmpl: elems elements, run as at least one iteration, after warming every
// random-access parameter region of tmpl that fits in cpu's LLC, in
// parameter order. It is the one warm-range rule: candidate evaluations
// and SSB stages both plan through it, and the warm list is part of the
// key.
func NewPlan(proto Protocol, cpu *isa.CPU, tmpl *hid.Template, out *translator.Output, elems int64) Plan {
	pl := Plan{Proto: proto, Prog: out.Program, Iters: max(elems/int64(out.ElemsPerIter), 1)}
	for _, p := range tmpl.Params {
		if p.Pattern == hid.RandomRegion && p.Region > 0 && p.Region <= uint64(cpu.LLC.SizeBytes) {
			pl.Warm = append(pl.Warm, WarmRange{Base: translator.ParamBase(tmpl, p.Name), Region: p.Region})
		}
	}
	return pl
}

// Key fingerprints the plan on the given machine model and perturbation,
// which must be those of the simulator Measure runs on.
func (p *Plan) Key(cpu *isa.CPU, perturb *uarch.Perturb) Key {
	return Fingerprint(p.Proto, cpu, perturb, p.Prog, p.Iters, p.Warm)
}

// Measure runs the plan's protocol on sim: reset the hierarchy, warm each
// range, under ProtoEvaluator one throwaway run to settle the stream
// prefetcher, then the measured run. Without the reset, lines touched by
// earlier measurements would stay resident and bias later ones; with it,
// the Result depends on nothing sim measured before, which is what makes a
// cached Result exact. The reset and warm are one Hierarchy.ResetWarm,
// which restores the warmed image when sim's last plan warmed the same
// ranges. The settling run shares the returned Result's storage, so a warm
// simulator allocates only the Result and its PortBusy.
func (p *Plan) Measure(sim *uarch.Sim) (*uarch.Result, error) {
	if err := sim.Err(); err != nil {
		return nil, err
	}
	sim.Hierarchy().ResetWarm(p.Warm)
	res := &uarch.Result{}
	if p.Proto == ProtoEvaluator {
		if err := sim.RunInto(res, p.Prog, p.Iters); err != nil {
			return nil, err
		}
	}
	if err := sim.RunInto(res, p.Prog, p.Iters); err != nil {
		return nil, err
	}
	return res, nil
}

// TranslationKey computes the canonical key of every input from which an
// evaluation under proto derives its measurement key: the machine model and
// normalized perturbation, the whole template (name, element type,
// parameters with pattern and region, accumulators, constants in sorted
// order, body), the node, the SIMD width, and the test size. Translation,
// the iteration count, and the warmed regions are deterministic functions
// of these, so equal translation keys imply equal measurement keys. It is
// a TranslationKeyer used once.
func TranslationKey(proto Protocol, cpu *isa.CPU, p *uarch.Perturb, tmpl *hid.Template, node translator.Node, width isa.Width, elems int64) Key {
	k := NewTranslationKeyer(proto, cpu, p, tmpl)
	return k.Key(node, width, elems)
}

// TranslationKeyer computes TranslationKey for calls that share every input
// but the node, width and test size, as one evaluator's search does. It
// hashes that prefix once, when built, and keeps only the SHA-256 state
// that hashing left: each Key restores the state and hashes the 40 bytes
// that follow. It keeps no reference to its inputs, so a prefix input that
// changes needs a new keyer. A keyer is scratch state for one goroutine;
// Fork returns one for another goroutine that shares the hashed prefix.
type TranslationKeyer struct {
	// state is the marshaled SHA-256 state after the prefix. Forks share
	// it, and nothing writes to it once it is built.
	state []byte
	h     hash.Hash // nil in a fork until its first Key
	buf   []byte
}

// NewTranslationKeyer hashes the prefix of TranslationKey(proto, cpu, p,
// tmpl, ...).
func NewTranslationKeyer(proto Protocol, cpu *isa.CPU, p *uarch.Perturb, tmpl *hid.Template) TranslationKeyer {
	var e enc
	// 4 KiB holds the machine model plus the largest built-in template.
	e.Buf = make([]byte, 0, 4096)
	// The leading tag keeps translation keys disjoint from measurement keys.
	e.Buf = append(e.Buf, 'T', byte(proto))
	e.cpu(cpu)
	e.perturb(p)
	e.template(tmpl)
	h := sha256.New()
	h.Write(e.Buf)
	// A SHA-256 state always marshals.
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary()
	return TranslationKeyer{state: state, h: h, buf: e.Buf[:0]}
}

// Fork returns a keyer with the receiver's prefix and scratch of its own.
func (k *TranslationKeyer) Fork() TranslationKeyer { return TranslationKeyer{state: k.state} }

// Key returns the translation key of node, width and elems under the
// keyer's prefix. It allocates nothing after a keyer's first call.
func (k *TranslationKeyer) Key(node translator.Node, width isa.Width, elems int64) Key {
	if k.h == nil {
		k.h = sha256.New()
		k.buf = make([]byte, 0, 40) // the node bytes; the sum reuses them
	}
	// The state was marshaled by a SHA-256 hash, so it always unmarshals.
	_ = k.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state)
	e := enc{fpenc.E{Buf: k.buf[:0]}}
	e.i(node.V)
	e.i(node.S)
	e.i(node.P)
	e.i(int(width))
	e.u64(uint64(elems))
	k.h.Write(e.Buf)
	var key Key
	copy(key[:], k.h.Sum(e.Buf[:0]))
	return key
}

// template encodes t, its constants in sorted name order.
func (e *enc) template(t *hid.Template) {
	e.str(t.Name)
	e.i(int(t.Elem))
	e.i(len(t.Params))
	for _, p := range t.Params {
		e.str(p.Name)
		e.i(int(p.Pattern))
		e.u64(p.Region)
	}
	e.i(len(t.Accs))
	for _, a := range t.Accs {
		e.str(a)
	}
	names := make([]string, 0, len(t.Consts))
	for name := range t.Consts {
		names = append(names, name)
	}
	slices.Sort(names)
	e.i(len(names))
	for _, name := range names {
		e.str(name)
		e.u64(t.Consts[name])
	}
	e.i(len(t.Body))
	for _, st := range t.Body {
		e.str(st.Dst)
		e.str(st.Op)
		e.i(len(st.Args))
		for _, a := range st.Args {
			e.i(int(a.Kind))
			e.str(a.Name)
			e.u64(a.Value)
		}
	}
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count Get calls; Entries counts stored Results.
	Hits, Misses, Entries uint64
}

// HitRate is Hits/(Hits+Misses), 0 on an unused cache.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Cache is a concurrency-safe content-addressed store of measurement
// Results. Results are deep-copied on both Put and Get, so callers may
// freely mutate what they pass in and get back (the experiment harness
// scales and accumulates counters in place). A nil *Cache is valid and
// never hits, so callers thread an optional cache without branching.
type Cache struct {
	mu sync.Mutex
	m  map[Key]*uarch.Result
	// links maps a TranslationKey to the measurement key its translation
	// fingerprinted to. It is memory-only: translation keys are never
	// persisted, so stores are the same bytes with or without it.
	links map[Key]Key
	// hits/misses are atomics, not mu-guarded fields: Stats is polled from
	// the telemetry scrape path while workers are mid-Get, and the counters
	// must stay exact without the poller contending for the map lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	onPut  func(Key, *uarch.Result)
}

// Process-wide totals across every Cache, for telemetry polling. Keeping
// them here (bumped alongside the per-cache counters) lets the metrics
// layer observe memo behaviour without this package importing it.
var (
	totalHits   atomic.Uint64
	totalMisses atomic.Uint64
)

// Totals reports hit/miss counts accumulated across all caches since
// process start (or the last ResetTotals).
func Totals() (hits, misses uint64) {
	return totalHits.Load(), totalMisses.Load()
}

// ResetTotals zeroes the process-wide counters. Test-only.
func ResetTotals() {
	totalHits.Store(0)
	totalMisses.Store(0)
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*uarch.Result), links: make(map[Key]Key)}
}

// GetLinked returns a private copy of the Result stored under the
// measurement key tk is linked to, counting one hit. When tk has no link
// (or its target is absent) it returns false and counts nothing: the caller
// translates, fingerprints, and Gets the measurement key, which counts the
// hit or miss exactly as if there were no link index.
func (c *Cache) GetLinked(tk Key) (*uarch.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	mk, ok := c.links[tk]
	if !ok {
		return nil, false
	}
	r, ok := c.m[mk]
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	totalHits.Add(1)
	return r.Clone(), true
}

// Link records that translation key tk yields measurement key mk. Callers
// link only what they computed: mk must be the fingerprint of the
// translation tk describes.
func (c *Cache) Link(tk, mk Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.links[tk] = mk
	c.mu.Unlock()
}

// Get returns a private copy of the Result stored under k, if any.
func (c *Cache) Get(k Key) (*uarch.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	if !ok {
		c.misses.Add(1)
		totalMisses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	totalHits.Add(1)
	return r.Clone(), true
}

// Put stores a private copy of r under k. Re-putting a key overwrites;
// identical content produces identical Results, so the overwrite is
// invisible (and does not re-fire the OnPut hook).
func (c *Cache) Put(k Key, r *uarch.Result) {
	if c == nil || r == nil {
		return
	}
	c.mu.Lock()
	_, existed := c.m[k]
	c.m[k] = r.Clone()
	hook := c.onPut
	c.mu.Unlock()
	if hook != nil && !existed {
		// The hook gets its own clone, outside the lock: a persistence
		// subscriber may serialise at leisure without blocking Gets, and
		// may not alias the stored entry.
		hook(k, r.Clone())
	}
}

// OnPut registers fn to be called once for each key newly inserted from now
// on — the subscription point for a persistence layer. fn runs on the
// putting goroutine, outside the cache lock, with a private copy of the
// Result. Overwrites of existing keys do not fire. At most one hook is
// supported; registering replaces the previous one.
func (c *Cache) OnPut(fn func(Key, *uarch.Result)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPut = fn
}

// Range calls fn for every stored entry, in unspecified order, under the
// cache lock — fn must not call back into the cache and must not retain or
// mutate r. It exists for compaction: rewriting a persistent backing from
// the live entries.
func (c *Cache) Range(fn func(k Key, r *uarch.Result)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, r := range c.m {
		fn(k, r)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries := uint64(len(c.m))
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: entries}
}
