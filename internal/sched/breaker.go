package sched

import (
	"sync"
	"time"
)

// BreakerConfig tunes a keyed circuit breaker. The zero value disables it.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips a key's
	// circuit open (<= 0 disables the breaker entirely).
	Threshold int
	// Cooldown is how long an open circuit denies its key before
	// half-opening to admit a single probe. Each owner picks its default
	// for <= 0: 1s for a Runner, 30s for hefd's tenant admission.
	Cooldown time.Duration
}

// BreakerState is one key's persistable circuit: hefd snapshots it into
// admission.state so a tenant cannot close its circuit early by crashing
// the daemon.
type BreakerState struct {
	// Failures is the consecutive failure count.
	Failures int `json:"failures,omitempty"`
	// Open reports an open circuit; OpenedAtMS (unix milliseconds) anchors
	// its cooldown.
	Open       bool  `json:"open,omitempty"`
	OpenedAtMS int64 `json:"opened_at_ms,omitempty"`
}

// Breakers is a table of per-key three-state circuit breakers: closed
// (normal), open (every attempt denied for the cooldown), and half-open
// (the cooldown has elapsed and exactly one probe is admitted). The
// probe's success closes the circuit; its failure re-opens it for a full
// cooldown from the failure. A failure reported while the circuit is open
// and no probe is in flight came from an attempt admitted before the trip,
// and is ignored: it says nothing new about the key, so it must not extend
// the cooldown.
type Breakers struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*circuit
}

type circuit struct {
	failures int
	open     bool
	openedAt time.Time
	probing  bool // the half-open probe is in flight
}

// NewBreakers returns an empty table. cfg.Cooldown must already carry the
// owner's default.
func NewBreakers(cfg BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg, m: map[string]*circuit{}}
}

func (b *Breakers) enabled() bool { return b.cfg.Threshold > 0 }

// circuitLocked returns key's circuit, creating it closed on first use.
func (b *Breakers) circuitLocked(key string) *circuit {
	c := b.m[key]
	if c == nil {
		c = &circuit{}
		b.m[key] = c
	}
	return c
}

// Allow reports whether an attempt under key may proceed at now. When it
// may not, retryAfter is the remaining cooldown, or a full cooldown while
// the half-open probe is in flight.
func (b *Breakers) Allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if !b.enabled() {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.m[key]
	if c == nil || !c.open {
		return true, 0
	}
	if wait := b.cfg.Cooldown - now.Sub(c.openedAt); wait > 0 {
		return false, wait
	}
	if c.probing {
		return false, b.cfg.Cooldown
	}
	c.probing = true
	return true, 0
}

// Success records a successful attempt: any success closes key's circuit
// and resets its failure count.
func (b *Breakers) Success(key string) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	*b.circuitLocked(key) = circuit{}
}

// Failure records a failed attempt at now: a failed probe re-opens the
// circuit for a full cooldown, and a closed circuit trips once the
// consecutive-failure count reaches the threshold.
func (b *Breakers) Failure(key string, now time.Time) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitLocked(key)
	if c.open {
		if c.probing {
			c.openedAt, c.probing = now, false
		}
		return
	}
	if c.failures++; c.failures >= b.cfg.Threshold {
		c.open, c.openedAt = true, now
	}
}

// Release frees key's probe slot without judging the probe, for attempts
// that ended neutrally (cancelled, parked by a drain): the next attempt
// becomes the probe instead of the key staying denied.
func (b *Breakers) Release(key string) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.m[key]; c != nil {
		c.probing = false
	}
}

// OpenCount counts circuits denying every attempt; a half-open circuit
// whose probe is in flight does not count.
func (b *Breakers) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.m {
		if c.open && !c.probing {
			n++
		}
	}
	return n
}

// Snapshot returns every circuit's persistable state (nil when empty). The
// half-open probe flag is deliberately not part of it: a probe in flight
// at crash time resolves as parked or lost, and after a restart the next
// attempt becomes the probe — persisting the flag would deny the key
// forever, waiting on a probe that no longer exists.
func (b *Breakers) Snapshot() map[string]BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.m) == 0 {
		return nil
	}
	out := make(map[string]BreakerState, len(b.m))
	for key, c := range b.m {
		s := BreakerState{Failures: c.failures, Open: c.open}
		if c.open {
			s.OpenedAtMS = c.openedAt.UnixMilli()
		}
		out[key] = s
	}
	return out
}

// Restore replaces the table with a snapshot: an open circuit stays open
// for the rest of its original cooldown, and a key one failure from the
// threshold is still one failure away.
func (b *Breakers) Restore(states map[string]BreakerState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = make(map[string]*circuit, len(states))
	for key, s := range states {
		c := &circuit{failures: s.Failures, open: s.Open}
		if s.Open {
			c.openedAt = time.UnixMilli(s.OpenedAtMS)
		}
		b.m[key] = c
	}
}
