package crawler

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"focus/internal/classifier"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// Mode selects the link-expansion rule (§2.1.2), and with it the checkout
// order (policyFor).
type Mode int

const (
	// ModeSoftFocus prioritizes crawling by R(d) and always expands links
	// (the robust rule the paper reports on).
	ModeSoftFocus Mode = iota
	// ModeHardFocus expands links only when the page's best leaf class has
	// a good ancestor-or-self; it tends to stagnate (§2.1.2).
	ModeHardFocus
	// ModeUnfocused is the standard BFS crawler baseline of Figure 5(a).
	ModeUnfocused
)

// maxRetries is the per-URL transient failure budget: a row's third
// transient failure kills it.
const maxRetries = 3

// Config tunes a crawl.
type Config struct {
	// Workers is the number of concurrent fetch threads (default 8; the
	// paper ran about thirty).
	Workers int
	// MaxFetches is the fetch-attempt budget; the crawl stops after this
	// many attempts (default 1000).
	MaxFetches int64
	// Mode selects soft focus, hard focus, or the unfocused baseline; New
	// and Resume refuse any other value.
	Mode Mode
	// Polite turns on the politeness stack, whose settings are constants
	// in politeness.go: per-host pacing, exponential retry backoff (or the
	// server's retry-after hint) before checkout may take a failed row
	// again, and per-host circuit breakers that keep a failing host's rows
	// queued — skipped at checkout, not burned against MaxFetches — until a
	// half-open probe succeeds. Off, checkout admits every row and a failed
	// row re-enters the frontier at once.
	Polite bool
	// DistillEvery runs the distiller after every k page visits
	// (0 disables distillation).
	DistillEvery int64
	// Distill configures those runs.
	Distill distiller.Config
	// HubNeighborBoost is the relevance assigned to unvisited pages cited
	// by top-decile hubs after each distillation (default 0.75; 0 keeps the
	// default, negative disables boosting).
	HubNeighborBoost float64
	// SkipDocuments is a no-op: the crawl keeps no DOCUMENT relation. The
	// field stays only because the benchmark's workload table still sets it.
	SkipDocuments bool
	// CheckpointEvery persists a durable checkpoint after every k page
	// visits (0: none by count), piggybacked on the distillation snapshot
	// point: the same quiesce (consistent cross-shard and cross-stripe
	// views), followed by relstore's atomic checkpoint. It is the longest
	// interval: on a durable DB a visit also checkpoints once the dirty
	// pages that must wait for one fill half the buffer pool. Requires
	// a DB opened durable (relstore.CreateFile/OpenDurable); New errors
	// otherwise. See checkpoint.go and Crawler.Resume.
	CheckpointEvery int64
	// CheckpointExtra, when set, is called inside each checkpoint's quiesce
	// and its blob is persisted alongside the crawler state, surfacing again
	// as CheckpointState.Extra after reopen — the synthetic web's RNG and
	// fault-window state rides here so a resumed crawl replays the same
	// network.
	CheckpointExtra func() ([]byte, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MaxFetches <= 0 {
		c.MaxFetches = 1000
	}
	// Negative already means "boost disabled": distillEpoch applies no
	// boost when HubNeighborBoost < 0, so the sentinel needs no clamp here.
	//focuslint:ignore zerodefault negative disables the boost downstream in distillEpoch
	if c.HubNeighborBoost == 0 {
		c.HubNeighborBoost = 0.75
	}
	return c
}

// HarvestPoint records one visited page in visit order; the sequence is the
// raw material of the paper's harvest-rate plots (Figure 5).
type HarvestPoint struct {
	Seq       int64
	OID       int64
	URL       string
	Relevance float64
	Kcid      int32
}

// Result summarizes a finished crawl.
type Result struct {
	Visited   int64
	Fetches   int64
	Failed    int64
	Dead      int64
	Stagnated bool // frontier drained before the budget was spent
	Distills  int
	// Checkpoints counts durable checkpoints taken during the run
	// (Config.CheckpointEvery).
	Checkpoints int64
	Elapsed     time.Duration
	// DistillStall is the total time crawl workers spent stopped for
	// distillation: the world-stopped snapshot phase of every epoch.
	DistillStall time.Duration
	// DistillCompute is the total time spent computing, publishing and
	// boosting HITS epochs, each on the worker whose visit triggered it
	// while the other workers keep crawling.
	DistillCompute time.Duration

	// Failure breakdown. Failed counts failed fetch *attempts*; the three
	// cause counters partition it, Retries says how many of those attempts
	// re-entered the frontier (so Failed no longer conflates three retries
	// of one page with three dead pages), and DeadByCause is the
	// dead-letter record of why each Dead row died.
	TimeoutFailures     int64
	NotFoundFailures    int64
	RateLimitedFailures int64
	Retries             int64
	// BreakerTrips counts closed→open and half-open→open transitions of
	// the per-host circuit breakers.
	BreakerTrips int64
	DeadByCause  map[DeadCause]int64
}

// Crawler owns the crawl state. The CRAWL relation is partitioned by host
// into one frontier shard per worker (see shard.go), each with its own
// in-memory frontier set, visit log and mutex; the LINK relation is striped
// by source oid into one partition per worker with its own lock
// (internal/linkgraph) — so workers on different shards and stripes touch
// disjoint tables and proceed in parallel. The counts are a physical
// property of the stored tables: a resumed crawl keeps its checkpoint's
// whatever Workers it continues with. A visit is numbered by the visited
// counter and logged in its shard's critical section, the epoch trigger is
// that number and the checkpoint trigger an atomic, so no crawl-wide mutex
// remains. Fetches
// (the expensive, high-latency part) run outside all locks, and so does
// classification (the model's in-memory statistics are read-only after
// training).
//
// Ordering contract: the paper's checkout order (numtries ASC, relevance
// DESC, serverload ASC) is preserved *within* each shard; across shards it
// is approximate — each shard publishes its head's priority key and
// workers pop from the shard whose head is globally best, so the global
// order holds up to hint staleness and concurrent checkouts. With one shard
// (Workers=1) the global order is exact.
//
// Distillation is epoch-based, and the visit that triggers an epoch runs
// it: under epochMu the worker takes the barrier (every link stripe lock,
// then every shard lock, each ascending) only for a short snapshot phase —
// cut LINK, swap out each shard's relevance change log — then computes HITS
// in memory, ranks each side, publishes the rankings through one atomic
// pointer, and applies the hub-neighbor boosts, while the other workers
// keep crawling. Snapshot points are an exact function of the visit
// sequence: the visit whose number is a multiple of DistillEvery fires one;
// monitors read scores that trail the crawl by at most the epoch being
// computed (see DistillEpochs). With Workers=1 nothing runs beside an
// epoch, so the visit order is a pure function of seed and config.
//
// Lock ordering, from the bottom of the tower up: epochMu < link stripe
// mutexes (ascending id) < frontier shard mutex (at most one, except under
// the barrier). The shard mutex is the top of the tower; only leaves (the
// pool latch, disk mutexes) are taken under it.
type Crawler struct {
	cfg     Config
	db      *relstore.DB
	model   *classifier.Model
	fetcher Fetcher

	shards []*shard
	links  *linkgraph.Store

	// expansions recycles the *expansion scratch of Seed and expandLinks, so
	// a visit's link expansion allocates no per-edge slice.
	expansions sync.Pool

	// epochMu serializes distillation epochs, checkpoints and Tables, so
	// publishing is one writer at a time and a checkpoint never sees an
	// epoch mid-compute. It is taken with no other lock held and stays held
	// across the HITS run. It also guards handed's adoption and ckptScores.
	//focuslint:lock rank=epoch order=5
	epochMu sync.Mutex

	// policy is the checkout order the mode fixes (policyFor), set at
	// construction; a CompareAndSwap of sinceCkpt to 0 claims the checkpoint
	// count trigger.
	policy    Policy
	sinceCkpt atomic.Int64

	// pub is the latest published epoch and its scores, never nil (epoch
	// 0, empty, before the first). An epoch replaces it whole, so a reader
	// loads it once and needs no lock; snapEpoch counts snapshots taken, the
	// crawl's one epoch counter (Result.Distills reads it).
	// The two differ only while an epoch computes — the stale-score window
	// monitors may observe.
	pub       atomic.Pointer[scores]
	snapEpoch atomic.Int64
	// handed is the HUBS/AUTH pair the last Tables call materialized,
	// until a score read adopts it (see Tables); nil otherwise.
	handed atomic.Pointer[distiller.Tables]
	// ckptScores is the published scores the durable file's score record
	// holds (checkpoint.go), so a checkpoint rewrites it only when pub has
	// moved on.
	ckptScores *scores
	// arr is the distiller's arrangement of LINK as of snapshot arrAt, cut
	// for epoch arrEpoch, and of the changes merged so far; changes holds the
	// logs a cut drained that no Extend has merged. All are guarded by
	// epochMu and zero until the first cut, which seeds them (a resume too).
	arr       *distiller.Arrangement
	arrAt     *linkgraph.Snapshot
	arrEpoch  int64
	changes   [][]distiller.Change
	stallNS   atomic.Int64
	computeNS atomic.Int64

	fetches     atomic.Int64
	visited     atomic.Int64
	failed      atomic.Int64
	dead        atomic.Int64
	inflight    atomic.Int64
	checkpoints atomic.Int64
	stop        atomic.Bool

	// Failure-breakdown counters for Result (see politeness.go for the
	// dead-cause enum).
	timeoutFails  atomic.Int64
	notFoundFails atomic.Int64
	limitedFails  atomic.Int64
	retries       atomic.Int64
	breakerTrips  atomic.Int64
	deadCause     [dcCount]atomic.Int64

	// retryBudget is the transient failure budget, maxRetries; the rest are
	// the politeness stack's settings (politeness.go). newCrawler sets them
	// from the constants, and tests may change them before Run.
	retryBudget     int32
	cooldown        time.Duration
	retryBackoff    time.Duration
	hostMaxInflight int
	hostDelay       time.Duration
	breakerAfter    int
	// checkoutHook, when set before Run, observes every frontier checkout
	// (shard, row at checkout time) under the shard lock. Test-only.
	checkoutHook func(*shard, relstore.Tuple)
	// distillFault, when set before Run, fails the given distillation
	// epoch before it computes. Test-only.
	distillFault func(epoch int64) error
}

// newCrawler is the construction New and Resume share: cfg with its defaults
// applied, the checkout order its mode fixes, and no relation created or
// attached yet. A mode outside the three is refused.
func newCrawler(db *relstore.DB, model *classifier.Model, fetcher Fetcher, cfg Config) (*Crawler, error) {
	pol, err := policyFor(cfg.Mode)
	if err != nil {
		return nil, err
	}
	c := &Crawler{
		cfg:             cfg.withDefaults(),
		db:              db,
		model:           model,
		fetcher:         fetcher,
		policy:          pol,
		retryBudget:     maxRetries,
		cooldown:        breakerCooldown,
		retryBackoff:    retryBackoff,
		hostMaxInflight: hostMaxInflight,
		hostDelay:       hostDelay,
		breakerAfter:    breakerAfter,
	}
	c.pub.Store(&scores{})
	c.ckptScores = c.pub.Load() // an empty score table is epoch 0's record
	return c, nil
}

// scores is what a distillation epoch publishes: each side ranked
// (distiller.Rank). It is never modified once published.
type scores struct {
	epoch      int64
	hubs, auth distiller.Ranking
}

// New creates a crawler over a fresh set of relations in db, with one
// frontier shard and one LINK stripe per worker. The model must be
// trained and its taxonomy marked with the crawl's good topics.
func New(db *relstore.DB, model *classifier.Model, fetcher Fetcher, cfg Config) (*Crawler, error) {
	w := cfg.withDefaults().Workers
	return newPartitioned(db, model, fetcher, cfg, w, w)
}

// newPartitioned is New with the partitioning given: shards frontier shards,
// stripes LINK stripes.
func newPartitioned(db *relstore.DB, model *classifier.Model, fetcher Fetcher, cfg Config, shards, stripes int) (*Crawler, error) {
	c, err := newCrawler(db, model, fetcher, cfg)
	if err != nil {
		return nil, err
	}
	if c.cfg.CheckpointEvery > 0 && !db.Durable() {
		return nil, errors.New("crawler: Config.CheckpointEvery requires a durable DB (relstore.CreateFile or OpenDurable)")
	}
	if db.Durable() {
		// The checkpoint's tables exist from creation so Checkpoint never
		// has to mutate the catalog mid-crawl.
		for _, name := range []string{ckptTable, ckptScoresTable} {
			if _, err := db.CreateTable(name, ckptSchema()); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < shards; i++ {
		tab, err := db.CreateTable(fmt.Sprintf("CRAWL#%d", i), CrawlSchema())
		if err != nil {
			return nil, err
		}
		sh, err := shardFromHeap(i, tab, c.policy)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	if c.links, err = linkgraph.New(db, stripes); err != nil {
		return nil, err
	}
	return c, nil
}

// Tables exposes the crawl relations as the distiller and Figure 8's
// fixtures read them, each materialized under the stop-the-world barrier:
// Link is the live striped store, wgt_fwd resolved against the visit logs
// (linkRel), Crawl a copy of every shard's CRAWL rows in a table named CRAWL
// (a row in flight reads as the frontier row its heap holds), and Hubs and
// Auth heap tables named HUBS and AUTH holding the published scores in
// ascending oid order, as RunJoin leaves them. Each
// call replaces the previous tables, whose pages are freed for reuse and
// whose handles become invalid; no table has an index
// (distiller.RunIndexWalk's caller adds the ones it probes). A distiller run over the returned tables republishes
// its result: the next score read — or checkpoint — ranks Hubs and Auth
// and publishes them, unless an epoch publishes first. That is how a crawl
// that ran no epoch gets the end-of-crawl one its report asks for.
func (c *Crawler) Tables() (distiller.Tables, error) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	r, err := c.adoptLocked()
	if err != nil {
		return distiller.Tables{}, err
	}
	c.lockAll()
	defer c.unlockAll()
	tb := distiller.Tables{Link: linkRel{c}}
	if err := c.db.DropTable("CRAWL"); err != nil {
		return distiller.Tables{}, err
	}
	if tb.Crawl, err = c.db.CreateTable("CRAWL", CrawlSchema()); err != nil {
		return distiller.Tables{}, err
	}
	for _, sh := range c.shards {
		err := sh.crawl.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
			_, err := tb.Crawl.Insert(t)
			return false, err
		})
		if err != nil {
			return distiller.Tables{}, err
		}
	}
	if tb.Hubs, err = c.materializeLocked("HUBS", r.hubs); err != nil {
		return distiller.Tables{}, err
	}
	if tb.Auth, err = c.materializeLocked("AUTH", r.auth); err != nil {
		return distiller.Tables{}, err
	}
	c.handed.Store(&tb)
	return tb, nil
}

// materializeLocked replaces the table name with a ranking's rows in
// ascending oid order. The barrier must be held: it edits the catalog.
//
//focuslint:lock requires=stripe*,shard*
func (c *Crawler) materializeLocked(name string, r distiller.Ranking) (*relstore.Table, error) {
	if err := c.db.DropTable(name); err != nil {
		return nil, err
	}
	tb, err := c.db.CreateTable(name, distiller.HubsAuthSchema())
	if err != nil {
		return nil, err
	}
	byOID := slices.Clone(r)
	slices.SortFunc(byOID, func(a, b distiller.Scored) int { return cmp.Compare(a.OID, b.OID) })
	return tb, distiller.WriteScores(tb, byOID)
}

// published returns the published scores, first adopting the pair Tables
// last handed out, if any.
func (c *Crawler) published() (*scores, error) {
	if c.handed.Load() == nil {
		return c.pub.Load(), nil
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.adoptLocked()
}

// adoptLocked publishes what the pair Tables last handed out holds, ranked,
// under the published epoch's number, and forgets the pair; with none
// handed out it returns the published scores. epochMu must be held.
//
//focuslint:lock requires=epoch
func (c *Crawler) adoptLocked() (*scores, error) {
	tb := c.handed.Swap(nil)
	if tb == nil {
		return c.pub.Load(), nil
	}
	r, err := readScores(c.pub.Load().epoch, tb.Hubs, tb.Auth)
	if err != nil {
		return nil, err
	}
	c.pub.Store(r)
	return r, nil
}

// readScores ranks a HUBS/AUTH pair's rows as the scores of epoch.
func readScores(epoch int64, hubs, auth *relstore.Table) (*scores, error) {
	h, err := distiller.ReadScores(hubs)
	if err != nil {
		return nil, err
	}
	a, err := distiller.ReadScores(auth)
	if err != nil {
		return nil, err
	}
	return &scores{epoch: epoch, hubs: distiller.Rank(h), auth: distiller.Rank(a)}, nil
}

// Links returns the striped LINK store. Its ScanEdges/Rows surface is safe
// to use while the crawl runs (each stripe locks for its portion); for a
// consistent cross-stripe snapshot use it after Run or via Tables. Its
// weights are the ingest estimates: wgt_fwd is the source's relevance.
func (c *Crawler) Links() *linkgraph.Store { return c.links }

// linkRel is LINK as Tables hands it out: each edge into a visited page
// reads that page's relevance as its wgt_fwd (EF[u,v] = relevance(v)), as
// the visit logs stand when a scan begins.
type linkRel struct{ c *Crawler }

func (l linkRel) ScanEdges(fn func(linkgraph.Edge) (bool, error)) error {
	rel := make(map[int64]float64, l.c.visited.Load())
	l.c.eachVisit(func(h *HarvestPoint) { rel[h.OID] = h.Relevance })
	return l.c.links.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		if fwd, ok := rel[e.Dst]; ok {
			e.WgtFwd = fwd
		}
		return fn(e)
	})
}

// Model returns the classifier guiding this crawl.
func (c *Crawler) Model() *classifier.Model { return c.model }

// Seed inserts the start set D(C*) with relevance 1, each URL into its
// host's home shard unless it is there already.
func (c *Crawler) Seed(urls []string) error {
	x := c.expansion()
	defer c.expansions.Put(x)
	for _, u := range urls {
		x.targets = append(x.targets, target{OIDOf(u), SIDOf(u), u})
	}
	return c.admit(x, 1.0, false)
}

// expansion is the scratch of one Seed or link expansion: the out-edge
// batch, the targets in arrival order, and the same targets grouped by home
// shard — grouped[ends[i-1]:ends[i]] are shard i's (from 0 for shard 0).
type expansion struct {
	batch   linkgraph.Batch
	targets []target
	grouped []target
	ends    []int
}

// expansion takes an emptied scratch from c.expansions.
func (c *Crawler) expansion() *expansion {
	x, _ := c.expansions.Get().(*expansion)
	if x == nil {
		return &expansion{}
	}
	x.batch.Reset()
	x.targets = x.targets[:0]
	return x
}

// admit enters x.targets into their home shards a shard at a time: grouped
// by shard (a counting sort, arrival order kept within each group), shards
// in ascending id order, each group under one hold of its shard's lock
// (shard.admitLocked, which says what prio and raise mean). With one shard
// the group is the targets in arrival order.
func (c *Crawler) admit(x *expansion, prio float64, raise bool) error {
	x.ends = append(x.ends[:0], make([]int, len(c.shards))...)
	for _, t := range x.targets {
		x.ends[c.shardIndex(t.sid)]++
	}
	for si, at := 0, 0; si < len(x.ends); si++ {
		x.ends[si], at = at, at+x.ends[si]
	}
	x.grouped = append(x.grouped[:0], x.targets...)
	for _, t := range x.targets {
		si := c.shardIndex(t.sid)
		x.grouped[x.ends[si]] = t
		x.ends[si]++
	}
	lo := 0
	for si, sh := range c.shards {
		group := x.grouped[lo:x.ends[si]]
		lo = x.ends[si]
		if len(group) == 0 {
			continue
		}
		sh.mu.Lock()
		err := sh.admitLocked(group, prio, raise)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the crawl until the budget is exhausted or the frontier
// stagnates, then reports totals.
func (c *Crawler) Run() (Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, c.cfg.Workers)
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		w := w
		go func() {
			defer wg.Done()
			if err := c.worker(w); err != nil {
				errCh <- err
				c.stop.Store(true)
			}
		}()
	}
	wg.Wait()
	// Every visit has completed, and a visit's epoch publishes before the
	// visit returns: the last snapshot's scores are published.
	close(errCh)
	if err := <-errCh; err != nil {
		return Result{}, err
	}
	res := Result{
		Visited:             c.visited.Load(),
		Fetches:             c.fetches.Load(),
		Failed:              c.failed.Load(),
		Dead:                c.dead.Load(),
		Distills:            int(c.snapEpoch.Load()),
		Checkpoints:         c.checkpoints.Load(),
		Elapsed:             time.Since(start),
		DistillStall:        time.Duration(c.stallNS.Load()),
		DistillCompute:      time.Duration(c.computeNS.Load()),
		TimeoutFailures:     c.timeoutFails.Load(),
		NotFoundFailures:    c.notFoundFails.Load(),
		RateLimitedFailures: c.limitedFails.Load(),
		Retries:             c.retries.Load(),
		BreakerTrips:        c.breakerTrips.Load(),
	}
	for i := range c.deadCause {
		if n := c.deadCause[i].Load(); n > 0 {
			if res.DeadByCause == nil {
				res.DeadByCause = make(map[DeadCause]int64)
			}
			res.DeadByCause[deadCauseName[i]] = n
		}
	}
	res.Stagnated = c.frontierEmpty() && res.Fetches < c.cfg.MaxFetches
	return res, nil
}

func (c *Crawler) frontierEmpty() bool {
	for _, sh := range c.shards {
		if sh.frontierN.Load() > 0 {
			return false
		}
	}
	return true
}

func (c *Crawler) budgetSpent() bool {
	return c.fetches.Load() >= c.cfg.MaxFetches
}

func (c *Crawler) worker(w int) error {
	home := w % len(c.shards)
	for {
		if c.stop.Load() || c.budgetSpent() {
			return nil
		}
		sh, rid, row, ok, wake, err := c.checkout(home)
		if err != nil {
			return err
		}
		if !ok {
			// No checkable row anywhere. Three cases: (1) rows exist but
			// are not yet eligible (backing off, host paced, breaker
			// cooling) — wake is their earliest eligibility time, so wait
			// for it (capped, since new eligible work can appear sooner);
			// (2) every shard is truly empty but fetches are in flight —
			// wait for them to add links (checkout raised inflight before
			// decrementing the frontier counter, so a popped-but-not-yet-
			// fetched row can never be mistaken for stagnation); (3) empty,
			// nothing in flight, nothing waiting: the crawl has stagnated.
			// A host at its in-flight cap implies case (2): its fetch is
			// still counted in inflight.
			if c.inflight.Load() == 0 && wake.IsZero() {
				return nil
			}
			d := 200 * time.Microsecond
			if !wake.IsZero() {
				if until := time.Until(wake); until > d {
					d = until
				}
				if d > 2*time.Millisecond {
					d = 2 * time.Millisecond
				}
			}
			time.Sleep(d)
			continue
		}
		res, ferr := c.fetcher.Fetch(row[CURL].S)
		if c.cfg.Polite {
			c.hostFetchDone(sh, SIDOf(row[CURL].S), ferr)
		}
		err = c.process(sh, rid, row, res, ferr)
		c.inflight.Add(-1)
		if err != nil {
			return err
		}
	}
}

// checkout selects the shard whose published frontier-head key is globally
// best (a lock-free read of every shard's hint) and pops that shard's head.
// Camping on a fixed home shard instead measurably degrades harvest and
// coverage quality: topical locality concentrates relevant hosts in a few
// shards, and workers pinned elsewhere burn budget on junk. The hint may
// be a step stale under concurrency, so a losing race retries the
// selection and finally falls back to probing every shard from the
// worker's home offset.
//
// With politeness on, a shard pop skips ineligible rows; the returned wake
// time is the earliest moment any skipped row becomes eligible (zero when
// nothing is waiting on the clock), so an empty-handed caller can wait
// honestly instead of declaring stagnation.
func (c *Crawler) checkout(home int) (*shard, relstore.RID, relstore.Tuple, bool, time.Time, error) {
	var wake time.Time
	pop := func(sh *shard) (relstore.RID, relstore.Tuple, bool, error) {
		rid, row, ok, w, err := sh.checkout(c)
		noteWake(&wake, w)
		return rid, row, ok, err
	}
	for attempt := 0; attempt < 2; attempt++ {
		var best *shard
		var bestKey *frontierKey
		for _, sh := range c.shards {
			if h := sh.head.Load(); h != nil && (best == nil || h.compare(bestKey) < 0) {
				best, bestKey = sh, h
			}
		}
		if best == nil {
			break
		}
		rid, row, ok, err := pop(best)
		if err != nil || ok {
			return best, rid, row, ok, wake, err
		}
	}
	n := len(c.shards)
	for i := 0; i < n; i++ {
		sh := c.shards[(home+i)%n]
		if sh.frontierN.Load() == 0 {
			continue // cheap skip; insertions recheck
		}
		rid, row, ok, err := pop(sh)
		if err != nil || ok {
			return sh, rid, row, ok, wake, err
		}
	}
	return nil, relstore.RID{}, nil, false, wake, nil
}

// process classifies a fetched page, persists it, and expands the frontier.
// sh is the shard the row was checked out of (the URL's home shard).
func (c *Crawler) process(sh *shard, rid relstore.RID, row relstore.Tuple, res *Fetch, ferr error) error {
	if ferr != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		c.failed.Add(1)
		var rle *RateLimitedError
		limited := errors.As(ferr, &rle)
		retryable := limited || errors.Is(ferr, ErrTransient)
		switch {
		case limited:
			c.limitedFails.Add(1)
		case retryable:
			c.timeoutFails.Add(1)
		default:
			c.notFoundFails.Add(1)
		}
		oid := row[COID].Int()
		old := row.Clone() // the row as stored, for UpdateFrom
		var tries int32
		if retryable {
			tries = int32(row[CTries].Int()) + 1
			row[CTries] = relstore.I32(tries)
			// Lazily refresh the server-load estimate while we have the row.
			row[CLoad] = relstore.I32(sh.serverSeen[SIDOf(row[CURL].S)])
		}
		if !retryable || tries >= c.retryBudget {
			c.dead.Add(1)
			c.deadCause[c.deadCauseLocked(sh, row, retryable, limited)].Add(1)
			row[CStatus] = relstore.I32(StatusDead)
			delete(sh.notBefore, oid)
			if err := sh.writeLocked(rid, old, row); err != nil {
				return err
			}
			sh.inflightRows--
			return nil
		}
		row[CStatus] = relstore.I32(StatusFrontier)
		c.retries.Add(1)
		if c.cfg.Polite {
			// The row re-enters the frontier but checkout must not touch it
			// before its backoff (or the server's retry-after hint) has
			// elapsed.
			sh.notBefore[oid] = time.Now().Add(c.retryDelay(oid, tries, rle))
		}
		if err := sh.writeLocked(rid, old, row); err != nil {
			return err
		}
		sh.inflightRows--
		sh.enterLocked(frontierKeyOf(sh.policy, row), rid)
		return nil
	}

	// Classification runs outside all locks: the model's statistics are
	// read-only after training.
	post := c.model.Classify(textproc.VectorOfTokens(res.Tokens))
	rel := c.model.Relevance(post)
	leaf := c.model.BestLeaf(post)
	return c.complete(sh, rid, row, res, rel, leaf)
}

// complete finishes a classified visit: row update, visit log, link
// expansion, and the distillation and checkpoint triggers. No lock is held.
func (c *Crawler) complete(sh *shard, rid relstore.RID, row relstore.Tuple, res *Fetch, rel float64, leaf taxonomy.NodeID) error {
	oid := row[COID].Int()

	// Persist the visit in one shard critical section: number it (the
	// visited counter), mark the row visited, and log it in the shard's visit
	// log, whose relevance is the forward weight of every edge into it (the
	// paper uses a trigger) — so any barrier sees all of it or none.
	old := row.Clone() // the row as stored (checkout's), for UpdateFrom
	sh.mu.Lock()
	seq := c.visited.Add(1)
	row[CRel] = relstore.F64(rel)
	row[CKcid] = relstore.I32(int32(leaf))
	row[CLast] = relstore.I64(seq)
	row[CStatus] = relstore.I32(StatusVisited)
	err := sh.writeLocked(rid, old, row)
	if err == nil {
		sh.inflightRows--
		sh.visits = append(sh.visits, HarvestPoint{
			Seq: seq, OID: oid, URL: row[CURL].S,
			Relevance: rel, Kcid: int32(leaf),
		})
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}

	expand := true
	if c.cfg.Mode == ModeHardFocus {
		expand = c.model.Tree.IsGoodOrSubsumed(leaf)
	}
	if expand {
		if err := c.expandLinks(oid, res, rel); err != nil {
			return err
		}
	}

	if c.cfg.DistillEvery > 0 && seq%c.cfg.DistillEvery == 0 {
		if err := c.distill(); err != nil {
			return err
		}
	}

	// The durable checkpoint trigger comes after the distillation trigger so
	// a visit that fires both distills first and the checkpoint captures that
	// epoch's published scores (a checkpoint takes epochMu first, so it never
	// sees an epoch mid-compute either way). CheckpointEvery is the longest
	// interval: dirty pages of the last checkpoint stay in the pool until the
	// next (relstore's durability contract), so once they fill half of it the
	// crawl checkpoints rather than run out of frames. That pressure lasts until
	// the flush, so every worker finishing a visit meanwhile fires too: each
	// waits at the barrier — which stops the pool filling further — and all
	// but the first find the checkpoint counter moved and take none. The count
	// trigger is claimed by the one visit whose CompareAndSwap resets it.
	if c.db.Durable() {
		pool := c.db.Pool()
		n := c.sinceCkpt.Add(1)
		seen := c.checkpoints.Load()
		pressure := pool.HeldDirty() >= pool.NumFrames()/2
		if pressure || c.cfg.CheckpointEvery > 0 && n >= c.cfg.CheckpointEvery {
			if c.sinceCkpt.CompareAndSwap(n, 0) || pressure {
				return c.checkpoint(seen)
			}
		}
	}
	return nil
}

// expandLinks records the page's out-edges through the batched linkgraph
// ingest and then enters the targets into the frontier. The batch is
// accumulated lock-free and committed to the stripes in one Apply pass; the
// frontier pass then takes the surviving edges a shard at a time (admit):
// a new target is queued at srcRel, a queued one whose citer is more
// relevant is raised to it (soft focus; the unfocused baseline queues at 0
// and raises nothing). With one worker — one stripe, one shard — the
// observable effects are identical, step for step, to the old per-link
// path. Each out-link URL is hashed once, here: the edge carries the
// target's oid and server id to the frontier pass.
func (c *Crawler) expandLinks(src int64, res *Fetch, srcRel float64) error {
	x := c.expansion()
	defer c.expansions.Put(x)
	for _, out := range res.Outlinks {
		dst := OIDOf(out)
		if dst == src {
			continue
		}
		t := target{dst, SIDOf(out), out}
		// Forward weight EF[u,v] = relevance(v); until v is classified, the
		// radius-1 rule makes R(u) the best available estimate (the epochs
		// and Tables resolve it to v's logged relevance once v is visited).
		// Backward weight EB[u,v] = relevance(u), known now.
		x.batch.Add(linkgraph.Edge{
			Src: src, SidSrc: res.ServerID,
			Dst: t.oid, SidDst: t.sid,
			WgtFwd: srcRel, WgtRev: srcRel,
		})
		x.targets = append(x.targets, t)
	}
	inserted, err := c.links.Apply(&x.batch, nil)
	if err != nil {
		return err
	}
	// A duplicate edge's target was entered when the edge first was.
	kept := x.targets[:0]
	for i, t := range x.targets {
		if inserted[i] {
			kept = append(kept, t)
		}
	}
	x.targets = kept
	if c.cfg.Mode == ModeUnfocused {
		return c.admit(x, 0, false) // FIFO order ignores relevance
	}
	return c.admit(x, srcRel, true)
}

// distill runs one distillation epoch on the worker whose visit triggered
// it and returns only once the epoch is published and its boosts applied.
// epochMu serializes epochs, so epochs publish in snapshot order. Only the
// snapshot phase stops the world and is charged to Result.DistillStall;
// the HITS run, the publish and the boosts run beside the other workers,
// which keep crawling. An epoch's error returns through the caller's
// visit, like any visit error. Callers hold no locks.
func (c *Crawler) distill() error {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	t0 := time.Now()
	snap, epoch, err := c.distillSnapshot()
	c.stallNS.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return err
	}
	return c.distillEpoch(snap, epoch)
}

// distillSnapshot is the short world-stopped phase: under the full barrier
// it cuts LINK and swaps each shard's change log for its emptied one in
// c.changes. The first cut logs every oid directory entry and seeds the
// arrangement with them, once. It returns the snapshot and the new epoch,
// numbered in order: epochMu is held.
//
//focuslint:lock requires=epoch
func (c *Crawler) distillSnapshot() (*linkgraph.Snapshot, int64, error) {
	c.lockAll()
	defer c.unlockAll()
	snap, err := c.links.SnapshotLocked()
	if err != nil {
		return nil, 0, err
	}
	if c.arr == nil {
		c.arr, c.changes = distiller.NewArrangement(c.cfg.Distill), make([][]distiller.Change, len(c.shards))
		for i, sh := range c.shards {
			sh.logging, sh.changes = true, make([]distiller.Change, 0, len(sh.rids))
			for oid, d := range sh.rids {
				sh.logLocked(oid, d)
			}
			c.changes[i], sh.changes = sh.changes, nil
		}
		c.arr.Seed(c.changes)
		c.merged()
	}
	for i, sh := range c.shards {
		if len(c.changes[i]) > 0 { // an epoch failed before merging them
			c.changes[i], sh.changes = append(c.changes[i], sh.changes...), sh.changes[:0]
		} else {
			c.changes[i], sh.changes = sh.changes, c.changes[i]
		}
	}
	return snap, c.snapEpoch.Add(1), nil
}

// merged empties the drained change logs once the arrangement holds them;
// epochMu must be held.
func (c *Crawler) merged() {
	for i := range c.changes {
		c.changes[i] = c.changes[i][:0]
	}
}

// distillEpoch computes a snapshotted epoch and publishes it, without any
// crawler lock: the snapshot and the drained changes are the epoch's, and
// epochMu makes this the only publisher. It extends the kept arrangement by
// LINK's tail past the last snapshot and by the changes. Publish order
// matters: each side is ranked and the boosts derived while both are
// private; one pointer store publishes the epoch (readers load the old
// scores or the new, never a mix), dropping any HUBS/AUTH pair Tables handed
// out; only then is the §3.4 boost applied shard by shard to the live rows.
func (c *Crawler) distillEpoch(snap *linkgraph.Snapshot, epoch int64) error {
	if c.distillFault != nil {
		if err := c.distillFault(epoch); err != nil {
			return err
		}
	}
	t0 := time.Now()
	defer func() { c.computeNS.Add(time.Since(t0).Nanoseconds()) }()
	tail, err := snap.Since(c.arrAt)
	if err == nil {
		err = c.arr.Extend(tail, c.changes, int(epoch-c.arrEpoch))
	}
	if err != nil {
		return err
	}
	c.arrAt, c.arrEpoch = snap, epoch
	c.merged()
	hubs, auth, _ := c.arr.Run()
	r := &scores{epoch: epoch, hubs: c.arr.Rank(hubs), auth: c.arr.Rank(auth)}
	var boosts []distiller.Page
	if top := topDecileHubs(r.hubs); c.cfg.HubNeighborBoost >= 0 && len(top) > 0 {
		boosts = c.arr.Cited(top)
	}
	c.handed.Store(nil)
	c.pub.Store(r)

	// Apply the boost delta against the live shards, a shard at a time under
	// one hold of its lock. Boosts are idempotent threshold raises, so the
	// order does not matter.
	for i := 0; i < len(c.shards) && len(boosts) > 0; i++ {
		sh := c.shards[i]
		sh.mu.Lock()
		for _, p := range boosts {
			if c.shardIndex(p.Sid) == i && err == nil {
				err = sh.boostLocked(p.OID, c.cfg.HubNeighborBoost)
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// topDecileHubs returns the hubs scoring strictly above the ranking's 90th
// percentile (distiller.Ranking.Percentile's nearest rank): a prefix of
// it. None when the ranking is empty or that threshold is 0. The §3.4
// boost raises the unvisited pages they cite on other servers.
func topDecileHubs(hubs distiller.Ranking) distiller.Ranking {
	psi, ok := hubs.Percentile(0.9)
	if !ok || psi == 0 {
		return nil
	}
	return hubs.Above(psi)
}

// DistillEpochs reports the distillation epoch counters: snapshotted is
// the number of snapshot phases taken, published the epoch of the scores
// monitors currently read. published trails snapshotted by one
// while an epoch computes and equals it otherwise — always by the time Run
// returns. Monitors that need scores no older than a given
// point can poll published.
func (c *Crawler) DistillEpochs() (snapshotted, published int64) {
	return c.snapEpoch.Load(), c.pub.Load().epoch
}

// HarvestLog returns the harvest points in visit order (a copy): the
// shards' visit logs merged by Seq. While a crawl runs it holds each shard's
// log as of the moment its lock was taken, so a visit another shard logged
// later may be missing; after Run it is dense, Seq 1..Visited.
func (c *Crawler) HarvestLog() []HarvestPoint {
	var out []HarvestPoint
	c.eachVisit(func(h *HarvestPoint) { out = append(out, *h) })
	slices.SortFunc(out, func(a, b HarvestPoint) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// URLOf resolves an oid back to its URL through the shard oid directories,
// one shard lock at a time (see resolveURLs): no barrier is needed.
func (c *Crawler) URLOf(oid int64) (string, bool) {
	s := []ScoredURL{{OID: oid}}
	err := c.resolveURLs(s)
	return s[0].URL, err == nil && s[0].URL != ""
}

// FrontierSize reports the number of checkable frontier rows across all
// shards.
func (c *Crawler) FrontierSize() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.frontierN.Load()
	}
	return n
}

// String describes the crawler state briefly.
func (c *Crawler) String() string {
	return fmt.Sprintf("crawler{visited=%d fetches=%d frontier=%d shards=%d policy=%s}",
		c.visited.Load(), c.fetches.Load(), c.FrontierSize(), len(c.shards), c.policy.Name)
}
