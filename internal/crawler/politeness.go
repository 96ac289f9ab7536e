package crawler

// The politeness layer: per-host token-bucket pacing, retry backoff with
// not-before eligibility, and per-host circuit breakers. Everything here
// hangs off the frontier shards — a host maps to exactly one shard
// (shardFor), so a server's pacing and breaker state live in its home
// shard under the shard mutex, and the lock tower is unchanged: no new
// lock is introduced and no politeness decision ever takes a second lock.
// The stack is one switch, Config.Polite, and with it on every feature is
// on; with it off, checkout admits every row and creates no host state,
// which is what keeps the golden crawls bit-identical.

import (
	"errors"
	"time"

	"focus/internal/relstore"
)

// DeadCause classifies why a CRAWL row went to StatusDead — the crawl's
// dead-letter outcome, surfaced through Result.DeadByCause.
type DeadCause string

const (
	// CauseNotFound: the fetch failed permanently (404 / dead link).
	CauseNotFound DeadCause = "not-found"
	// CauseTimeoutBudget: transient timeouts exhausted the retry budget.
	CauseTimeoutBudget DeadCause = "timeout-budget"
	// CauseRateLimited: the last failure was a 429 and the retry budget
	// is gone.
	CauseRateLimited DeadCause = "rate-limited-exhausted"
	// CauseBreaker: the row died while its host's circuit breaker was
	// open — the host was failing consistently, not just this row.
	CauseBreaker DeadCause = "breaker"
)

// Dense indices for the crawler's cause counters.
const (
	dcNotFound = iota
	dcTimeoutBudget
	dcRateLimited
	dcBreaker
	dcCount
)

var deadCauseName = [dcCount]DeadCause{
	CauseNotFound, CauseTimeoutBudget, CauseRateLimited, CauseBreaker,
}

// The politeness stack's settings, matched to HostileWeb's default window
// (internal/eval): pacing keeps a host near its budget instead of slamming
// into it, backoff outlasts outages instead of burning the retry budget
// inside one, and the breaker stops paying for hosts that are down.
// newCrawler copies them into the Crawler, where tests may shorten them.
const (
	// hostMaxInflight caps concurrent fetches per server id: checkout skips
	// rows whose host already has that many fetches in flight, so a worker
	// picks a different host's page instead of blocking.
	hostMaxInflight = 2
	// hostDelay is the minimum delay between fetch starts against one
	// server id (token-bucket pacing).
	hostDelay = 15 * time.Millisecond
	// retryBackoff is the first retry's delay; each further try doubles it,
	// up to retryBackoffCap times it.
	retryBackoff = 8 * time.Millisecond
	// breakerAfter is the run of consecutive failures that opens a host's
	// circuit breaker.
	breakerAfter = 3
	// breakerCooldown is the open breaker's cooling period before the
	// half-open probe.
	breakerCooldown = 50 * time.Millisecond
)

// hostState is one server's politeness state: the token bucket (in-flight
// count plus pacing clock) and the circuit breaker.
type hostState struct {
	inflight  int
	nextFetch time.Time // earliest next checkout under hostDelay pacing
	fails     int       // consecutive failed fetches (timeouts, 429s)
	breaker   int
	probing   bool // half-open probe checked out, outcome pending
	openUntil time.Time
}

const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

// retryBackoffCap bounds the pre-jitter retry delay, as a multiple of
// retryBackoff. A power of two, so doubling lands on it exactly.
const retryBackoffCap = 32

// noteWake keeps the earliest non-zero wake time.
func noteWake(dst *time.Time, t time.Time) {
	if !t.IsZero() && (dst.IsZero() || t.Before(*dst)) {
		*dst = t
	}
}

// admitLocked decides whether a frontier row may be checked out now.
// sh.mu must be held. On an open breaker whose cooldown has passed, the
// breaker moves to half-open and the row is admitted as its probe.
func (c *Crawler) admitLocked(sh *shard, row relstore.Tuple, now time.Time) (bool, time.Time) {
	if nb, ok := sh.notBefore[row[COID].Int()]; ok && now.Before(nb) {
		return false, nb
	}
	hs := sh.hosts[SIDOf(row[CURL].S)]
	if hs == nil {
		return true, time.Time{}
	}
	switch hs.breaker {
	case bkOpen:
		if now.Before(hs.openUntil) {
			return false, hs.openUntil
		}
		hs.breaker = bkHalfOpen
		hs.probing = false
	case bkHalfOpen:
		if hs.probing {
			return false, time.Time{}
		}
	}
	if hs.inflight >= c.hostMaxInflight {
		return false, time.Time{}
	}
	if now.Before(hs.nextFetch) {
		return false, hs.nextFetch
	}
	return true, time.Time{}
}

// acquireHostLocked charges a checkout to the row's host: one in-flight
// slot, the pacing clock, and — on a half-open breaker — the probe flag,
// so only one probe flies per cooldown. sh.mu must be held.
func (c *Crawler) acquireHostLocked(sh *shard, sid int32, now time.Time) {
	hs := sh.hosts[sid]
	if hs == nil {
		hs = &hostState{}
		sh.hosts[sid] = hs
	}
	hs.inflight++
	hs.nextFetch = now.Add(c.hostDelay)
	if hs.breaker == bkHalfOpen {
		hs.probing = true
	}
}

// hostFetchDone releases the fetch's host slot and advances the host's
// breaker with the outcome. A permanent not-found counts as the server
// answering — it resets the failure streak; timeouts and 429s count
// against it. Called by the worker right after the fetch returns, before
// the row's own failure handling, so a final failure sees the breaker
// state its own outcome produced.
func (c *Crawler) hostFetchDone(sh *shard, sid int32, ferr error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	hs := sh.hosts[sid]
	if hs == nil {
		hs = &hostState{}
		sh.hosts[sid] = hs
	}
	if hs.inflight > 0 {
		hs.inflight--
	}
	failed := ferr != nil &&
		(errors.Is(ferr, ErrTransient) || errors.Is(ferr, ErrRateLimited))
	if !failed {
		hs.fails = 0
		if hs.breaker != bkClosed {
			hs.breaker = bkClosed
			hs.probing = false
		}
		return
	}
	hs.fails++
	if hs.breaker == bkHalfOpen ||
		(hs.breaker == bkClosed && hs.fails >= c.breakerAfter) {
		hs.breaker = bkOpen
		hs.probing = false
		hs.openUntil = time.Now().Add(c.cooldown)
		c.breakerTrips.Add(1)
	}
}

// retryDelay computes how long a transiently failed row waits before
// checkout may touch it again: the server's retry-after hint when the
// failure carried one, else exponential backoff with deterministic jitter
// (hashed from the oid and the attempt number, so a rerun of the same
// crawl draws the same schedule).
func (c *Crawler) retryDelay(oid int64, tries int32, rle *RateLimitedError) time.Duration {
	if rle != nil && rle.RetryAfter > 0 {
		return rle.RetryAfter
	}
	d := c.retryBackoff
	for i := int32(1); i < tries && d < retryBackoffCap*c.retryBackoff; i++ {
		d *= 2
	}
	// Jitter in [1.0, 1.5)×d, splitmix-style.
	h := uint64(oid) + uint64(tries)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	frac := float64(h>>40) / float64(uint64(1)<<24)
	return d + time.Duration(float64(d)/2*frac)
}

// deadCauseLocked classifies a dying row for the dead-letter record.
// sh.mu must be held.
func (c *Crawler) deadCauseLocked(sh *shard, row relstore.Tuple, retryable, limited bool) int {
	if !retryable {
		return dcNotFound
	}
	if hs := sh.hosts[SIDOf(row[CURL].S)]; hs != nil && hs.breaker == bkOpen {
		return dcBreaker
	}
	if limited {
		return dcRateLimited
	}
	return dcTimeoutBudget
}
