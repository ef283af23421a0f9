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
// in-memory link index from the translator's inputs to the measurement key
// those inputs produced, so a repeated evaluation finds its Result without
// translating at all. Within a search only the node varies, so the index
// is one table per link prefix — a fingerprint of every other input
// (LinkKeyer), hashed once per evaluator — keyed by the node: a warm
// evaluation is one locked probe of the link table and the entries, with
// nothing hashed and, for a caller that needs only the cost
// (LinkedSeconds), nothing copied.
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

// LinkKeyer keys the link index. An evaluation under proto derives its
// measurement key from the machine model and normalized perturbation, the
// whole template (name, element type, parameters with pattern and region,
// accumulators, constants in sorted order, body), the SIMD width, the test
// size and the node. Translation, the iteration count and the warmed
// regions are deterministic functions of these, so equal inputs imply
// equal measurement keys. Every input but the node is hashed into a prefix
// key (Prefix), which is fixed for one evaluator; the node is then a plain
// map key within the prefix's link table, with nothing left to hash.
//
// A keyer hashes the inputs it is built on — protocol, machine model and
// perturbation — once, and keeps only the SHA-256 state that hashing left;
// Prefix continues from that state. It keeps no reference to its inputs,
// so a changed machine model or perturbation needs a new keyer. A keyer is
// immutable and safe for concurrent use.
type LinkKeyer struct {
	// state is the marshaled SHA-256 state after the keyer's inputs.
	state []byte
}

// encBufs recycles the encoding buffers of link keys: a template encodes
// to about 1.5 KB, and a keyer's prefix is hashed once per evaluator.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2<<10); return &b }}

// hashEncoding runs fn on an encoder with a recycled buffer and writes the
// encoding to h.
func hashEncoding(h hash.Hash, fn func(e *enc)) {
	bp := encBufs.Get().(*[]byte)
	e := enc{fpenc.E{Buf: (*bp)[:0]}}
	fn(&e)
	h.Write(e.Buf)
	*bp = e.Buf[:0]
	encBufs.Put(bp)
}

// NewLinkKeyer hashes the machine part of the link prefixes of
// measurements under proto on cpu with perturbation p.
func NewLinkKeyer(proto Protocol, cpu *isa.CPU, p *uarch.Perturb) LinkKeyer {
	h := sha256.New()
	hashEncoding(h, func(e *enc) {
		// The leading tag keeps link prefixes disjoint from measurement
		// keys.
		e.Buf = append(e.Buf, 'T', byte(proto))
		e.cpu(cpu)
		e.perturb(p)
	})
	// A SHA-256 state always marshals.
	state, _ := h.(encoding.BinaryMarshaler).MarshalBinary()
	return LinkKeyer{state: state}
}

// Prefix returns the link prefix of evaluations of tmpl at the given width
// and test size under the keyer's inputs.
func (k LinkKeyer) Prefix(tmpl *hid.Template, width isa.Width, elems int64) Key {
	h := sha256.New()
	// The state was marshaled by a SHA-256 hash, so it always unmarshals.
	_ = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state)
	hashEncoding(h, func(e *enc) {
		e.template(tmpl)
		e.i(int(width))
		e.u64(uint64(elems))
	})
	var sum [sha256.Size]byte
	var key Key
	copy(key[:], h.Sum(sum[:0]))
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
	// links maps a link prefix (LinkKeyer.Prefix) and a node to the
	// measurement key their translation fingerprinted to, one table per
	// prefix. It is memory-only: links are never persisted, so stores are
	// the same bytes with or without it.
	links map[Key]map[translator.Node]Key
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
	return &Cache{m: make(map[Key]*uarch.Result), links: make(map[Key]map[translator.Node]Key)}
}

// linkedLocked returns the Result stored under the measurement key that
// prefix and n are linked to, counting one hit, or nil, counting nothing.
// Callers hold c.mu.
func (c *Cache) linkedLocked(prefix Key, n translator.Node) *uarch.Result {
	mk, ok := c.links[prefix][n]
	if !ok {
		return nil
	}
	r := c.m[mk]
	if r != nil {
		c.hits.Add(1)
		totalHits.Add(1)
	}
	return r
}

// GetLinked returns a private copy of the Result stored under the
// measurement key the link prefix and node are linked to, counting one
// hit. When they have no link (or its target is absent) it returns false
// and counts nothing: the caller translates, fingerprints, and Gets the
// measurement key, which counts the hit or miss exactly as if there were
// no link index.
func (c *Cache) GetLinked(prefix Key, n translator.Node) (*uarch.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.linkedLocked(prefix, n); r != nil {
		return r.Clone(), true
	}
	return nil, false
}

// LinkedSeconds is GetLinked for a caller that needs only the Result's
// Seconds() and Elems: it reads them from the stored entry, copying
// nothing.
func (c *Cache) LinkedSeconds(prefix Key, n translator.Node) (seconds float64, elems uint64, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.linkedLocked(prefix, n); r != nil {
		return r.Seconds(), r.Elems, true
	}
	return 0, 0, false
}

// Link records that the link prefix and node yield measurement key mk.
// Callers link only what they computed: mk must be the fingerprint of the
// translation prefix and n describe.
func (c *Cache) Link(prefix Key, n translator.Node, mk Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	t := c.links[prefix]
	if t == nil {
		t = make(map[translator.Node]Key)
		c.links[prefix] = t
	}
	t[n] = mk
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
