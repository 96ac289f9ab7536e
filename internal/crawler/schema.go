// Package crawler implements the paper's goal-directed crawler (§3.2): a
// multi-threaded fetch loop whose frontier lives in the CRAWL table and is
// checked out through an in-memory ordered set over that table's unvisited
// rows, in a lexicographic order the crawl's mode fixes — aggressive
// discovery order (numtries ASC, relevance DESC, serverload ASC) when
// focused, FIFO for the unfocused baseline.
// The classifier supplies the soft-focus relevance that drives link
// expansion priorities, classifying each page in the worker that fetched it;
// the distiller runs concurrently and periodically raises the priority of
// unvisited pages cited by top hubs.
package crawler

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"focus/internal/relstore"
)

// Fetch is one retrieved page as the crawler sees it.
type Fetch struct {
	URL      string
	Server   string
	ServerID int32
	Tokens   []string
	Outlinks []string
}

// Fetcher retrieves pages from the (distributed, costly) hypertext graph.
type Fetcher interface {
	Fetch(url string) (*Fetch, error)
}

// ErrTransient marks fetch failures worth retrying (timeouts). Fetchers
// wrap their transient errors with it; anything else is treated as
// permanent (dead link).
var ErrTransient = errors.New("crawler: transient fetch failure")

// ErrRateLimited marks 429-style fetch failures: the host refused the
// fetch and (usually) hinted when to come back. Retryable like
// ErrTransient, but accounted separately — politeness-aware crawls honor
// the retry-after hint and the breaker counts it as a host failure.
var ErrRateLimited = errors.New("crawler: rate limited")

// RateLimitedError carries a rate-limited fetch's retry-after hint.
// errors.Is(err, ErrRateLimited) matches it; Unwrap preserves the
// fetcher's own error chain.
type RateLimitedError struct {
	RetryAfter time.Duration
	Err        error
}

func (e *RateLimitedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%v: retry after %v", e.Err, e.RetryAfter)
	}
	return fmt.Sprintf("crawler: rate limited: retry after %v", e.RetryAfter)
}

func (e *RateLimitedError) Unwrap() error { return e.Err }

func (e *RateLimitedError) Is(target error) bool { return target == ErrRateLimited }

// CRAWL column positions.
const (
	COID = iota
	CURL
	CRel
	CTries
	CLoad
	CLast
	CKcid
	CStatus
	CSeq
)

// CRAWL.status values.
const (
	StatusFrontier int32 = iota // unvisited, eligible for checkout
	StatusVisited
	StatusDead     // permanently failed or retry budget exhausted
	StatusInflight // checked out by a worker
)

// CrawlSchema is the CRAWL relation of Figure 1 (plus a seq column for
// FIFO orders and an explicit status).
func CrawlSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "oid", Kind: relstore.KInt64},
		relstore.Column{Name: "url", Kind: relstore.KString},
		relstore.Column{Name: "relevance", Kind: relstore.KFloat64},
		relstore.Column{Name: "numtries", Kind: relstore.KInt32},
		relstore.Column{Name: "serverload", Kind: relstore.KInt32},
		relstore.Column{Name: "lastvisited", Kind: relstore.KInt64},
		relstore.Column{Name: "kcid", Kind: relstore.KInt32},
		relstore.Column{Name: "status", Kind: relstore.KInt32},
		relstore.Column{Name: "seq", Kind: relstore.KInt64},
	)
}

// OIDOf hashes a URL to its 64-bit object ID (FNV-1a, like the paper's
// 64-bit hashed oid keys).
func OIDOf(url string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= prime64
	}
	return int64(h)
}

// HostOf extracts the server name from an http URL.
func HostOf(url string) string {
	s := strings.TrimPrefix(url, "http://")
	s = strings.TrimPrefix(s, "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// SIDOf hashes a URL's server to its 32-bit server ID. DNS tricks
// (load-balancing, multi-homing) defeated the paper's IP-based sids too;
// hashing the host name has the same "tolerable aberrations".
func SIDOf(url string) int32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	host := HostOf(url)
	h := uint32(offset32)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= prime32
	}
	return int32(h)
}

// Policy maps a CRAWL row to its checkout-order key: the row's status, then
// the crawl priority, ending in the oid so that keys are unique. A key is
// fixed-width, as EncodeKey of fixed-width columns is. Only StatusFrontier
// rows are ordered, so the frontier set drops the status and holds the rest,
// at most frontierKeyWidth bytes. The crawl's mode picks one of the two
// below (policyFor).
type Policy struct {
	Name string
	Key  func(relstore.Tuple) []byte
}

// AggressiveDiscovery is the paper's default checkout order:
// (numtries ASC, relevance DESC, serverload ASC).
func AggressiveDiscovery() Policy {
	return Policy{
		Name: "aggressive",
		Key: func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(
				t[CStatus], t[CTries],
				relstore.F64(-t[CRel].Float()),
				t[CLoad], t[COID],
			)
		},
	}
}

// FIFO is breadth-first order: the unfocused baseline crawler of §3.4.
func FIFO() Policy {
	return Policy{
		Name: "fifo",
		Key: func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[CStatus], t[CSeq], t[COID])
		},
	}
}

// policyFor is the checkout order mode fixes: aggressive discovery for a
// focused crawl, FIFO for the unfocused baseline. A mode outside the three
// is refused by number.
func policyFor(m Mode) (Policy, error) {
	switch m {
	case ModeSoftFocus, ModeHardFocus:
		return AggressiveDiscovery(), nil
	case ModeUnfocused:
		return FIFO(), nil
	}
	return Policy{}, fmt.Errorf("crawler: unknown mode %d", m)
}
