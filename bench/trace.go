package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"focus/internal/crawler"
	"focus/internal/relstore"
)

// span is one timed call into a layer. Spans of one visit share Visit (the
// visit's sequence number); Parent is the index of the span that caused
// this one, -1 for a root. Times are nanoseconds since the trace began.
// PoolFetches and AllocBytes are the buffer-pool fetches and heap bytes
// allocated while the span was open — attributable to it in the
// single-threaded replay (bytes to the allocator's flush granularity),
// children included; a span's self time (or self count) is its own minus
// its children's.
type span struct {
	Name        string `json:"name"`
	Visit       int64  `json:"visit"`
	Parent      int32  `json:"parent"`
	Start       int64  `json:"start_ns"`
	End         int64  `json:"end_ns"`
	PoolFetches int64  `json:"pool_fetches"`
	AllocBytes  int64  `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory for one goroutine; the trace file is
// written when the unit ends.
type tracer struct {
	t0    time.Time
	pool  *relstore.BufferPool
	spans []span
	alloc []metrics.Sample
}

func newTracer(t0 time.Time, pool *relstore.BufferPool) *tracer {
	return &tracer{t0: t0, pool: pool, alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) poolFetches() int64 {
	st := t.pool.Stats()
	return st.Hits + st.Misses
}

func (t *tracer) allocBytes() int64 {
	metrics.Read(t.alloc)
	return int64(t.alloc[0].Value.Uint64())
}

// begin opens a span and returns its index. The counters are stashed
// negated in the span and completed by end.
func (t *tracer) begin(name string, visit int64, parent int32) int32 {
	t.spans = append(t.spans, span{
		Name: name, Visit: visit, Parent: parent,
		PoolFetches: -t.poolFetches(), AllocBytes: -t.allocBytes(),
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.PoolFetches += t.poolFetches()
	s.AllocBytes += t.allocBytes()
}

// spanFetcher wraps the crawl's Fetcher and records one root span per
// fetch attempt. Workers call it concurrently, so appends take a mutex;
// the lock is the tracing overhead bench.trace_overhead_pct reports.
type spanFetcher struct {
	inner crawler.Fetcher
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func (f *spanFetcher) Fetch(url string) (*crawler.Fetch, error) {
	start := time.Since(f.t0).Nanoseconds()
	res, err := f.inner.Fetch(url)
	end := time.Since(f.t0).Nanoseconds()
	name := "webgraph.fetch"
	if err != nil {
		name = "webgraph.fetch.failed"
	}
	f.mu.Lock()
	f.spans = append(f.spans, span{Name: name, Parent: -1, Start: start, End: end})
	f.mu.Unlock()
	return res, err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
