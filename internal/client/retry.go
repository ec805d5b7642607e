package client

// Self-healing HTTP transport: capped exponential backoff with jitter
// for transient failures, so a progressive search (or SearchStream)
// rides out a shard restart, an admission 429/503 or a dropped
// connection instead of surfacing it to the caller.
//
// What retries is deliberately narrow:
//
//   - 429 and 503 always retry. This server's admission control
//     refuses before executing anything (the rate limiter runs before
//     the backend is touched, the load shedder before the body is
//     decoded), so repeating the request cannot double-apply it — and
//     the response carries the server's own Retry-After hint, which
//     the backoff honors.
//   - Other 5xx and transport-level failures (connection refused,
//     reset, timeout) retry only for idempotent operations (Login,
//     Query, QueryBatch, Stats): a mutation whose request may have
//     reached the server cannot be safely repeated.
//   - Everything else — 4xx application errors, malformed responses —
//     fails fast.
//
// Backoff sleeps are context-aware: canceling the caller's context
// aborts a sleep immediately and returns the context's error.

import (
	"context"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"zerberr/internal/server"
)

// RetryPolicy tunes the transport's retry behavior. The zero value of
// a field takes the default noted on it; a nil *RetryPolicy on HTTP
// disables retrying entirely.
type RetryPolicy struct {
	// MaxRetries is how many times a failed exchange is re-sent (the
	// first attempt is not a retry). 0 means DefaultMaxRetries; use a
	// negative value for "no retries" explicitly.
	MaxRetries int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (and a server Retry-After hint).
	// 0 means DefaultMaxDelay.
	MaxDelay time.Duration
}

// Retry policy defaults.
const (
	DefaultMaxRetries = 4
	DefaultBaseDelay  = 100 * time.Millisecond
	DefaultMaxDelay   = 5 * time.Second
)

// DefaultRetryPolicy is the policy the CLI installs: survives a few
// seconds of shard unavailability without stretching a doomed call
// past ~10s.
func DefaultRetryPolicy() *RetryPolicy { return &RetryPolicy{} }

func (p *RetryPolicy) maxRetries() int {
	switch {
	case p == nil || p.MaxRetries < 0:
		return 0
	case p.MaxRetries == 0:
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// delay computes the backoff before retry number `retry` (0-based):
// equal-jitter exponential growth from BaseDelay, raised to a server
// Retry-After hint when one was sent, capped at MaxDelay either way.
func (p *RetryPolicy) delay(retry int, hint time.Duration) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	if max <= 0 {
		max = DefaultMaxDelay
	}
	d := base << uint(retry)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	// Equal jitter: half deterministic, half uniform — desynchronizes
	// a fleet of clients hammering a recovering shard.
	d = d/2 + rand.N(d/2+1)
	if hint > d {
		d = hint
	}
	if d > max {
		d = max
	}
	return d
}

// sleepCtx sleeps d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a Retry-After response header: delta-seconds or an
// HTTP date. 0 when absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retryable classifies one failed exchange. status 0 means the
// exchange failed below HTTP (transport error).
func retryable(status int, idempotent bool) bool {
	switch {
	case status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
		// Admission rejections: refused before execution, safe for
		// every operation.
		return true
	case status == 0, status >= 500:
		return idempotent
	case status == server.StatusClientClosedRequest:
		// The server abandoned the request because its context ended
		// while this caller was still waiting: a shutdown drain gave
		// up on it. As ambiguous as a 5xx.
		return idempotent
	}
	return false
}
