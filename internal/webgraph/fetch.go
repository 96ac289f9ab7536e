package webgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is the permanent fetch failure (dead link / 404).
var ErrNotFound = errors.New("webgraph: not found")

// ErrTimeout is a transient fetch failure; the crawler may retry.
var ErrTimeout = errors.New("webgraph: fetch timed out")

// ErrRateLimited is the 429-style fetch failure: the target server's
// capacity budget for the current window is spent. Matched with
// errors.Is; the concrete error is a *RateLimitError carrying the
// server's retry-after hint.
var ErrRateLimited = errors.New("webgraph: rate limited")

// RateLimitError is the concrete rate-limit failure.
type RateLimitError struct {
	Host string
	// RetryAfter is the server's hint: time until its capacity window
	// rolls over and fetches are accepted again.
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("webgraph: rate limited by %s (retry after %v)", e.Host, e.RetryAfter)
}

func (e *RateLimitError) Unwrap() error { return ErrRateLimited }

// IsTransient reports whether a fetch error is worth retrying.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrRateLimited)
}

// FetchResult is what the crawler sees for one fetched page: its text
// tokens and outgoing link URLs. Nothing else about the synthetic web leaks
// through this interface.
type FetchResult struct {
	URL      string
	Server   string
	ServerID int32
	Tokens   []string
	Outlinks []string
}

type fetchState struct {
	// Pure leaf: latency/outage decisions commit under it, but the
	// simulated fetch sleep always runs after it drops.
	//focuslint:lock rank=fetchstate leaf noblock=io,chan,sleep
	mu       sync.Mutex
	failRng  *rand.Rand
	failSrc  *countingSource
	hosts    map[string]*hostFault
	fetches  atomic.Int64
	timeouts atomic.Int64
	notFound atomic.Int64
	limited  atomic.Int64
	outages  atomic.Int64
}

// pageRngs holds Fetch's generators: a *rand.Rand over a pageSource, reseeded per page.
var pageRngs = sync.Pool{New: func() any { return rand.New(new(pageSource)) }}

// countingSource wraps the failure RNG's source and counts every state
// advance. The count is the whole RNG state for checkpointing purposes: the
// source is seeded deterministically, and both Int63 and Uint64 advance the
// underlying generator by exactly one step, so re-seeding and burning the
// same number of draws reproduces the stream position bit-for-bit.
// Guarded by fetchState.mu like the *rand.Rand that owns it.
type countingSource struct {
	src rand.Source64
	n   int64
}

//focuslint:rng baseline
func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

//focuslint:rng baseline
func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// hostFault is one server's fault-injection state — the rolling rate-limit
// window and the current outage — guarded by fetchState.mu.
type hostFault struct {
	winStart  time.Time
	winUsed   int
	darkUntil time.Time
}

func (s *fetchState) init(cfg Config) {
	// rand.NewSource's concrete type implements Source64; the assertion is
	// load-bearing for checkpoint replay (Uint64 burns exactly one step).
	s.failSrc = &countingSource{src: rand.NewSource(cfg.Seed ^ 0x5DEECE66D).(rand.Source64)}
	s.failRng = rand.New(s.failSrc)
	s.hosts = make(map[string]*hostFault)
}

// Fetches returns the number of fetch attempts so far (including failures).
func (w *Web) Fetches() int64 { return w.fetches.Load() }

// Timeouts returns the number of fetch attempts that transiently failed
// (random timeouts plus fetches to a dark host).
func (w *Web) Timeouts() int64 { return w.timeouts.Load() }

// NotFounds returns the number of fetch attempts that hit a dead URL.
func (w *Web) NotFounds() int64 { return w.notFound.Load() }

// RateLimited returns the number of fetch attempts rejected 429-style.
func (w *Web) RateLimited() int64 { return w.limited.Load() }

// Outages returns the number of times a host went dark.
func (w *Web) Outages() int64 { return w.outages.Load() }

// ResetFetches zeroes the fetch counters and per-host fault state
// (between experiments).
func (w *Web) ResetFetches() {
	w.fetches.Store(0)
	w.timeouts.Store(0)
	w.notFound.Store(0)
	w.limited.Store(0)
	w.outages.Store(0)
	w.mu.Lock()
	w.hosts = make(map[string]*hostFault)
	w.mu.Unlock()
}

// hostOf extracts the server name from the synthetic web's URLs (real and
// dead URLs both embed it).
func hostOf(url string) string {
	s := strings.TrimPrefix(url, "http://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Fetch simulates retrieving a URL over the network. It costs one fetch
// attempt, sleeps for a simulated latency drawn as FetchLatency/2 +
// U[0, FetchLatency) when FetchLatency is set (mean FetchLatency, never
// less than half of it), may transiently fail (ErrTimeout), and returns
// ErrNotFound for URLs that do not resolve to a page.
//
// All random draws — latency jitter first, then the timeout roll, then the
// per-host outage roll, each taken only when its feature is enabled — come
// from one critical section on the shared failure RNG, in exactly that
// order: under a multi-worker crawl the lock is on the fetch hot path, and
// taking it once instead of several times cuts its traffic without
// perturbing the RNG stream the golden crawls are pinned to (hostility
// features draw nothing when disabled).
//
// When hostility is on, failure precedence per attempt is: dark host
// (outage) > rate limit (*RateLimitError with a retry-after hint) > random
// timeout. A dark host's attempts do not consume rate-limit capacity.
func (w *Web) Fetch(url string) (*FetchResult, error) {
	w.fetches.Add(1)
	hostile := w.Cfg.ServerCapacity > 0 || w.Cfg.OutageRate > 0
	var jit time.Duration
	var timedOut, dark bool
	var limited *RateLimitError
	if w.Cfg.FetchLatency > 0 || w.Cfg.TimeoutRate > 0 || hostile {
		w.mu.Lock()
		if w.Cfg.FetchLatency > 0 {
			jit = time.Duration(w.failRng.Int63n(int64(w.Cfg.FetchLatency)))
		}
		if w.Cfg.TimeoutRate > 0 {
			timedOut = w.failRng.Float64() < w.Cfg.TimeoutRate
		}
		if hostile {
			host := hostOf(url)
			h := w.hosts[host]
			if h == nil {
				h = &hostFault{}
				w.hosts[host] = h
			}
			now := time.Now()
			if w.Cfg.OutageRate > 0 && !now.Before(h.darkUntil) &&
				w.failRng.Float64() < w.Cfg.OutageRate {
				h.darkUntil = now.Add(w.Cfg.OutageLength)
				w.outages.Add(1)
			}
			switch {
			case now.Before(h.darkUntil):
				dark = true
			case w.Cfg.ServerCapacity > 0:
				if now.Sub(h.winStart) >= w.Cfg.ServerWindow {
					h.winStart, h.winUsed = now, 0
				}
				h.winUsed++
				if h.winUsed > w.Cfg.ServerCapacity {
					limited = &RateLimitError{
						Host:       host,
						RetryAfter: h.winStart.Add(w.Cfg.ServerWindow).Sub(now),
					}
				}
			}
		}
		w.mu.Unlock()
	}
	if w.Cfg.FetchLatency > 0 {
		time.Sleep(w.Cfg.FetchLatency/2 + jit)
	}
	if dark {
		w.timeouts.Add(1)
		return nil, fmt.Errorf("%w: %s unreachable", ErrTimeout, hostOf(url))
	}
	if limited != nil {
		w.limited.Add(1)
		return nil, limited
	}
	if timedOut {
		w.timeouts.Add(1)
		return nil, ErrTimeout
	}
	idx, ok := w.byURL[url]
	if !ok {
		w.notFound.Add(1)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	p := w.Pages[idx]
	rng := pageRngs.Get().(*rand.Rand)
	rng.Seed(p.seed)
	res := &FetchResult{
		URL:      p.URL,
		Server:   p.Server,
		ServerID: p.ServerID,
		Tokens:   w.tokensOf(p, rng, nil),
		Outlinks: make([]string, 0, len(p.Links)+p.Dead),
	}
	pageRngs.Put(rng)
	for _, dst := range p.Links {
		res.Outlinks = append(res.Outlinks, w.Pages[dst].URL)
	}
	for k := 0; k < p.Dead; k++ {
		// Dead URLs are deterministic per page so retries see the same web.
		res.Outlinks = append(res.Outlinks,
			fmt.Sprintf("http://s%03d.web.test/dead%06d-%d", p.ServerID, p.ID, k))
	}
	return res, nil
}

// LinkStats summarizes the graph's citation structure, used to verify the
// generator honours the paper's radius-1 and radius-2 rules.
type LinkStats struct {
	// SameTopicFrac is the fraction of links whose endpoints share a topic
	// (radius-1: must be far above 1/#topics).
	SameTopicFrac float64
	// CondSecondLink is P[page has >=2 links into topic T | it has >=1],
	// measured over all (page, T) pairs exactly as the paper's Yahoo!
	// measurement (~45%) is: a page's own topic counts too.
	CondSecondLink float64
	// BaseTopicLink is P[a random link lands in a fixed topic T], measured
	// from the actual link destinations and averaged over the same
	// (page, T) pairs CondSecondLink conditions on — the unconditional
	// baseline the radius-2 rule beats. For each pair, the probability
	// that one more uniformly random link would land in T is T's share of
	// all link destinations; under skewed topic sizes that share is far
	// from the uniform-topic 1/#topics guess (popular topics attract more
	// links and appear in more pairs), so this must be measured, not
	// assumed.
	BaseTopicLink float64
}

// MeasureLinkStats computes LinkStats over the whole graph.
func (w *Web) MeasureLinkStats() LinkStats {
	// First pass: per-topic destination counts, so a topic's share of all
	// link destinations is known before the per-pair average below.
	var links, same int64
	destCount := map[int32]int64{}
	for _, p := range w.Pages {
		for _, dst := range p.Links {
			links++
			t := w.Pages[dst].Topic
			if t == p.Topic {
				same++
			}
			destCount[int32(t)]++
		}
	}
	st := LinkStats{}
	if links == 0 {
		return st
	}
	st.SameTopicFrac = float64(same) / float64(links)
	// Second pass: (page, T) pairs with at least one link into T — the
	// radius-2 conditioning set — accumulating both the >=2 numerator and
	// each pair's unconditional baseline P[a random link lands in T].
	withOne, withTwo := 0, 0
	var baseSum float64
	counts := map[int32]int{}
	for _, p := range w.Pages {
		clear(counts)
		for _, dst := range p.Links {
			counts[int32(w.Pages[dst].Topic)]++
		}
		for t, c := range counts {
			withOne++
			if c >= 2 {
				withTwo++
			}
			baseSum += float64(destCount[t]) / float64(links)
		}
	}
	if withOne > 0 {
		st.CondSecondLink = float64(withTwo) / float64(withOne)
		st.BaseTopicLink = baseSum / float64(withOne)
	}
	return st
}
