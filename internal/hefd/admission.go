package hefd

import (
	"fmt"
	"time"
)

// Shed codes: the typed reasons a submission is refused without entering
// the queue. The API maps them to HTTP statuses and a JSON error body.
const (
	// ShedQueueFull: the global bounded queue is at capacity (HTTP 429).
	ShedQueueFull = "queue_full"
	// ShedQuota: the tenant's token bucket is dry (HTTP 429).
	ShedQuota = "quota_exhausted"
	// ShedBreakerOpen: the tenant's circuit breaker is open after repeated
	// job failures (HTTP 503).
	ShedBreakerOpen = "tenant_breaker_open"
	// ShedDraining: the daemon is draining for shutdown (HTTP 503).
	ShedDraining = "draining"
)

// ShedError is the typed admission refusal. It never represents a server
// bug: the request was understood and deliberately shed to protect the
// service, and RetryAfter tells the client when trying again is useful.
type ShedError struct {
	// Code is one of the Shed* constants.
	Code string
	// Message is a human-readable explanation.
	Message string
	// RetryAfter is the suggested wait before resubmitting (0 = none
	// suggested, e.g. a drain that ends with the process).
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("hefd: %s: %s (retry after %v)", e.Code, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("hefd: %s: %s", e.Code, e.Message)
}

// shedBackoff derives the queue-full Retry-After from shed pressure: each
// consecutive shed doubles the suggested wait (base<<n, capped), and a
// successful admission resets it. Clients that honour the header therefore
// back off exponentially as overload persists, exactly like the runner's
// own retry backoff. Deliberately jitter-free: the value is advisory, and
// determinism keeps the overload tests exact.
type shedBackoff struct {
	base, max   time.Duration
	consecutive int
}

func (b *shedBackoff) next() time.Duration {
	d := b.base << min(b.consecutive, 16)
	if d > b.max || d <= 0 {
		d = b.max
	}
	b.consecutive++
	return d
}

func (b *shedBackoff) reset() { b.consecutive = 0 }
