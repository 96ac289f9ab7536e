package crawler

// Durable checkpoint and resume. A checkpoint captures the crawl at the same
// consistency point the distillation snapshot uses — the full barrier with
// pending incoming-weight sweeps drained — so every persisted relation
// (CRAWL shards, LINK stripes, HUBS/AUTH buffers) reflects one cut of the
// visit sequence. The mutable in-memory state that is NOT derivable from the
// relations (visit sequence, counters, politeness clocks, which score buffer
// is published) goes into a small CKPT key/value table; everything else —
// harvest log, per-shard oid directory and frontier set, serverSeen/insertSeq,
// frontier counts, the link store's directories and dst registry — is
// rebuilt from the relations at Resume, which keeps the checkpoint write
// small and the single source of truth on disk.
//
// Bit-identical resume is pinned under the same discipline as the one-shard,
// one-stripe goldens: Workers=1 (so the quiesce point always falls between
// complete() tails, with nothing in flight) and deterministic fetching.
// Multi-worker checkpoints are still crash-consistent — no lost or
// duplicated visits — but rows checked out at the quiesce point flip back to
// the frontier on resume and their fetch attempts are re-spent, so counters
// and visit order may differ from the uninterrupted run.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"focus/internal/classifier"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

const (
	ckptTable    = "CKPT"
	ckptStateKey = "state"
	ckptExtraKey = "extra"
)

func ckptSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "k", Kind: relstore.KString},
		relstore.Column{Name: "v", Kind: relstore.KString},
	)
}

// CheckpointHost is one server's persisted politeness state. Clocks are
// stored as remaining durations relative to the checkpoint instant and
// rebased on resume; the in-flight count is not persisted (no fetch survives
// a restart) and the half-open probe flag resets so the probe is re-issued.
type CheckpointHost struct {
	Fails           int           `json:"fails"`
	Breaker         int           `json:"breaker"`
	OpenRemain      time.Duration `json:"open_remain,omitempty"`
	NextFetchRemain time.Duration `json:"next_fetch_remain,omitempty"`
}

// CheckpointShard is one frontier shard's persisted in-memory state: the
// politeness host map and per-row retry eligibility times (remaining
// durations). Hosts in their default state (no failure streak, breaker
// closed, pacing clock expired) are omitted.
type CheckpointShard struct {
	Hosts     map[int32]CheckpointHost `json:"hosts,omitempty"`
	NotBefore map[int64]time.Duration  `json:"not_before,omitempty"`
}

// CheckpointState is the crawler's persisted non-relational state, stored as
// one JSON row in the CKPT table. Fields that are pure functions of the
// persisted relations (harvest log, serverSeen, insertSeq, frontier counts)
// are deliberately absent — Resume recomputes them.
type CheckpointState struct {
	// Visit is the visit-sequence counter; Fetches is the attempt counter
	// net of fetches whose rows were still in flight at the quiesce point
	// (those re-run after resume, so charging them would double-count).
	Visit   int64 `json:"visit"`
	Fetches int64 `json:"fetches"`
	Visited int64 `json:"visited"`
	Failed  int64 `json:"failed"`
	Dead    int64 `json:"dead"`

	Retries       int64          `json:"retries"`
	TimeoutFails  int64          `json:"timeout_fails"`
	NotFoundFails int64          `json:"not_found_fails"`
	LimitedFails  int64          `json:"limited_fails"`
	BreakerTrips  int64          `json:"breaker_trips"`
	DeadCause     [dcCount]int64 `json:"dead_cause"`

	SinceDist int64 `json:"since_dist"`
	SinceCkpt int64 `json:"since_ckpt"`
	Distills  int   `json:"distills"`
	// Epoch is the published distillation epoch; a checkpoint holds
	// epochMu, so no epoch is mid-compute and snapshotted == published here
	// (unless an epoch failed, which aborts the crawl).
	Epoch int64 `json:"epoch"`
	// PubIsPrimary records which physical pair of score tables was published
	// at the checkpoint: true means HUBS/AUTH, false means the #spare pair.
	// The names alternate roles with every epoch swap, so without this bit a
	// resume could hand monitors the stale buffer.
	PubIsPrimary bool `json:"pub_is_primary"`

	// The physical partitioning, fixed at creation; Resume attaches exactly
	// these tables and refuses a mode or policy mismatch.
	FrontierShards int    `json:"frontier_shards"`
	LinkStripes    int    `json:"link_stripes"`
	Mode           Mode   `json:"mode"`
	Policy         string `json:"policy"`

	Shards []CheckpointShard `json:"shards"`

	// Extra is the opaque Config.CheckpointExtra blob (the synthetic web's
	// RNG/fault state rides here). Stored as its own CKPT row, not in the
	// JSON.
	Extra []byte `json:"-"`
}

// Checkpoint quiesces the crawl at a distill-grade consistency point and
// persists everything needed for Resume: it takes epochMu (so no epoch is
// mid-compute and the published scores are the last snapshot's) and the full
// barrier, drains pendingFwd, writes the CKPT state row, and drives
// relstore's durable checkpoint (journal, flush, manifest, sync). Safe to
// call between Runs as well as during one.
func (c *Crawler) Checkpoint() error { return c.checkpoint(-1) }

// checkpoint is Checkpoint for the in-crawl trigger: with seen >= 0 it takes
// none if, once it holds the barrier, the checkpoint counter is no longer the
// seen its caller read when the trigger fired — another worker's checkpoint
// has already answered that trigger.
func (c *Crawler) checkpoint(seen int64) error {
	if !c.db.Durable() {
		return errors.New("crawler: Checkpoint requires a durable DB (relstore.CreateFile or OpenDurable)")
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	c.lockAll()
	defer c.unlockAll()
	if seen >= 0 && c.checkpoints.Load() != seen {
		return nil
	}
	return c.checkpointLocked()
}

// checkpointLocked does the work under the barrier.
//
//focuslint:lock requires=stripe*,shard*,global
func (c *Crawler) checkpointLocked() error {
	// Drain pending incoming-weight sweeps exactly like the distill barrier:
	// the persisted LINK weights must be final for every visited page. The
	// entries stay in pendingFwd — the owning workers' own sweeps commit the
	// same value, and a resumed crawl starts with the map empty because the
	// drain below already made the weights durable.
	for oid, rel := range c.pendingFwd {
		if err := c.links.UpdateIncomingFwdLocked(oid, rel); err != nil {
			return err
		}
	}
	var inflightRows int64
	for _, sh := range c.shards {
		inflightRows += sh.inflightRows
	}
	now := time.Now()
	st := CheckpointState{
		Visit:          c.visitSeq,
		Fetches:        c.fetches.Load() - inflightRows,
		Visited:        c.visited.Load(),
		Failed:         c.failed.Load(),
		Dead:           c.dead.Load(),
		Retries:        c.retries.Load(),
		TimeoutFails:   c.timeoutFails.Load(),
		NotFoundFails:  c.notFoundFails.Load(),
		LimitedFails:   c.limitedFails.Load(),
		BreakerTrips:   c.breakerTrips.Load(),
		SinceDist:      c.sinceDist,
		SinceCkpt:      c.sinceCkpt,
		Distills:       c.distills,
		Epoch:          c.pubEpoch.Load(),
		PubIsPrimary:   c.hubs.Name == "HUBS",
		FrontierShards: len(c.shards),
		LinkStripes:    c.links.NumStripes(),
		Mode:           c.cfg.Mode,
		Policy:         c.policy.Name,
	}
	if st.Fetches < 0 {
		st.Fetches = 0
	}
	for i := range c.deadCause {
		st.DeadCause[i] = c.deadCause[i].Load()
	}
	for _, sh := range c.shards {
		var cs CheckpointShard
		for sid, hs := range sh.hosts {
			if hs.fails == 0 && hs.breaker == bkClosed && !now.Before(hs.nextFetch) {
				continue
			}
			ch := CheckpointHost{Fails: hs.fails, Breaker: hs.breaker}
			if hs.openUntil.After(now) {
				ch.OpenRemain = hs.openUntil.Sub(now)
			}
			if hs.nextFetch.After(now) {
				ch.NextFetchRemain = hs.nextFetch.Sub(now)
			}
			if cs.Hosts == nil {
				cs.Hosts = make(map[int32]CheckpointHost)
			}
			cs.Hosts[sid] = ch
		}
		for oid, nb := range sh.notBefore {
			if nb.After(now) {
				if cs.NotBefore == nil {
					cs.NotBefore = make(map[int64]time.Duration)
				}
				cs.NotBefore[oid] = nb.Sub(now)
			}
		}
		st.Shards = append(st.Shards, cs)
	}
	blob, err := json.Marshal(&st)
	if err != nil {
		return err
	}
	ck := c.db.Table(ckptTable)
	if ck == nil {
		return errors.New("crawler: CKPT table missing (crawler was not created on this DB)")
	}
	if err := ck.Truncate(); err != nil {
		return err
	}
	if _, err := ck.Insert(relstore.Tuple{relstore.Str(ckptStateKey), relstore.Str(string(blob))}); err != nil {
		return err
	}
	if c.cfg.CheckpointExtra != nil {
		extra, err := c.cfg.CheckpointExtra()
		if err != nil {
			return err
		}
		if _, err := ck.Insert(relstore.Tuple{relstore.Str(ckptExtraKey), relstore.Str(string(extra))}); err != nil {
			return err
		}
	}
	if err := c.db.Checkpoint(); err != nil {
		return err
	}
	c.checkpoints.Add(1)
	return nil
}

// ReadCheckpoint decodes the crawler state persisted in a reopened durable
// DB (relstore.OpenFile/OpenDurable) without building a crawler — callers
// that need the Extra blob before Resume (the synthetic web imports its RNG
// state first, so the fetcher handed to Resume is already positioned) use
// this directly.
func ReadCheckpoint(db *relstore.DB) (*CheckpointState, error) {
	ck := db.Table(ckptTable)
	if ck == nil {
		return nil, fmt.Errorf("crawler: database has no %s table (not a crawl checkpoint)", ckptTable)
	}
	var blob, extra string
	var found, hasExtra bool
	err := ck.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		switch t[0].S {
		case ckptStateKey:
			blob, found = t[1].S, true
		case ckptExtraKey:
			extra, hasExtra = t[1].S, true
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, errors.New("crawler: checkpoint table holds no state row")
	}
	st := &CheckpointState{}
	if err := json.Unmarshal([]byte(blob), st); err != nil {
		return nil, fmt.Errorf("crawler: checkpoint state decode: %w", err)
	}
	if st.FrontierShards <= 0 || st.LinkStripes <= 0 {
		return nil, fmt.Errorf("crawler: checkpoint state invalid: %d shards, %d stripes",
			st.FrontierShards, st.LinkStripes)
	}
	if hasExtra {
		st.Extra = []byte(extra)
	}
	return st, nil
}

// policyByName resolves a persisted checkout-policy name back to its
// constructor. Key functions are closures and cannot be persisted, so resume
// only works under the built-in policies; a crawl that installed a custom
// Policy via SetPolicy cannot be resumed and fails here by name.
func policyByName(name string) (Policy, bool) {
	switch name {
	case "aggressive":
		return AggressiveDiscovery(), true
	case "fifo":
		return FIFO(), true
	case "relevance":
		return RelevanceOnly(), true
	case "maintenance":
		return Maintenance(), true
	}
	return Policy{}, false
}

// Resume rebuilds a crawler from the checkpoint in a reopened durable DB and
// leaves it ready to Run with the remaining budget. The persisted relations
// are attached (the score tables' key functions re-bound by index name), rows
// left in flight at the checkpoint flip back to the frontier, and all
// derivable in-memory state — harvest log, the shards' oid directories,
// frontier sets and counters, the link store's directories and dst registry
// — is recomputed from the relations. cfg
// supplies the knobs for the continued crawl (budget, workers,
// politeness); the shard and stripe counts (a property of the stored tables,
// whatever cfg.Workers says), mode, and policy come from the checkpoint, and
// a cfg.Mode mismatch is refused. The fetcher must be positioned to continue
// (see CheckpointState.Extra).
func Resume(db *relstore.DB, model *classifier.Model, fetcher Fetcher, cfg Config) (*Crawler, error) {
	if !db.Durable() {
		return nil, errors.New("crawler: Resume requires a durable DB")
	}
	st, err := ReadCheckpoint(db)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != st.Mode {
		return nil, fmt.Errorf("crawler: resume with mode %d, checkpoint was taken under mode %d", cfg.Mode, st.Mode)
	}
	pol, ok := policyByName(st.Policy)
	if !ok {
		return nil, fmt.Errorf("crawler: checkpoint uses unknown checkout policy %q", st.Policy)
	}
	c := newCrawler(db, model, fetcher, cfg, pol)

	// Older files carry the DOCUMENT stripes and merged snapshot the crawl no
	// longer keeps: drop them, freeing their pages before anything allocates.
	for i := 0; db.Table(fmt.Sprintf("DOCUMENT#%d", i)) != nil; i++ {
		if err := db.DropTable(fmt.Sprintf("DOCUMENT#%d", i)); err != nil {
			return nil, err
		}
	}
	if err := db.DropTable("DOCUMENT"); err != nil {
		return nil, err
	}

	now := time.Now()
	var harvest []HarvestPoint
	for i := 0; i < st.FrontierShards; i++ {
		var ss CheckpointShard
		if i < len(st.Shards) {
			ss = st.Shards[i]
		}
		sh, hv, err := attachShard(db, i, pol, ss, now)
		if err != nil {
			return nil, err
		}
		harvest = append(harvest, hv...)
		c.shards = append(c.shards, sh)
	}
	sort.Slice(harvest, func(a, b int) bool { return harvest[a].Seq < harvest[b].Seq })
	if int64(len(harvest)) != st.Visited {
		return nil, fmt.Errorf("crawler: checkpoint inconsistent: %d visited rows, counter says %d",
			len(harvest), st.Visited)
	}
	c.harvest = harvest

	if c.links, err = linkgraph.Attach(db, st.LinkStripes); err != nil {
		return nil, err
	}

	bindScore := func(name string) (*relstore.Table, error) {
		tb := db.Table(name)
		if tb == nil {
			return nil, fmt.Errorf("crawler: resume: missing table %s", name)
		}
		if err := tb.BindIndexKey("oid", func(t relstore.Tuple) []byte {
			return relstore.EncodeKey(t[0])
		}); err != nil {
			return nil, err
		}
		return tb, nil
	}
	hubs, err := bindScore("HUBS")
	if err != nil {
		return nil, err
	}
	auth, err := bindScore("AUTH")
	if err != nil {
		return nil, err
	}
	hubsAlt, err := bindScore("HUBS#spare")
	if err != nil {
		return nil, err
	}
	authAlt, err := bindScore("AUTH#spare")
	if err != nil {
		return nil, err
	}
	if st.PubIsPrimary {
		c.hubs, c.auth, c.hubsAlt, c.authAlt = hubs, auth, hubsAlt, authAlt
	} else {
		c.hubs, c.auth, c.hubsAlt, c.authAlt = hubsAlt, authAlt, hubs, auth
	}

	c.visitSeq = st.Visit
	c.sinceDist = st.SinceDist
	c.sinceCkpt = st.SinceCkpt
	c.distills = st.Distills
	c.snapEpoch.Store(st.Epoch)
	c.pubEpoch.Store(st.Epoch)
	c.fetches.Store(st.Fetches)
	c.visited.Store(st.Visited)
	c.failed.Store(st.Failed)
	c.dead.Store(st.Dead)
	c.retries.Store(st.Retries)
	c.timeoutFails.Store(st.TimeoutFails)
	c.notFoundFails.Store(st.NotFoundFails)
	c.limitedFails.Store(st.LimitedFails)
	c.breakerTrips.Store(st.BreakerTrips)
	for i := range st.DeadCause {
		c.deadCause[i].Store(st.DeadCause[i])
	}
	return c, nil
}

// attachShard reopens one CRAWL partition: rebuilds the oid directory (with
// each row's status and relevance), the
// frontier set, serverSeen/insertSeq/frontierN and the shard's harvest log
// slice from the rows, flips rows stranded in flight back to the frontier
// (their fetches died with the crashed process), republishes the head hint,
// and rebases the persisted politeness clocks.
func attachShard(db *relstore.DB, id int, pol Policy, ss CheckpointShard, now time.Time) (*shard, []HarvestPoint, error) {
	tab := db.Table(fmt.Sprintf("CRAWL#%d", id))
	if tab == nil {
		return nil, nil, fmt.Errorf("crawler: resume: missing table CRAWL#%d", id)
	}
	// A file written before the oid directory and the frontier set has an oid
	// B+tree and a frontier B+tree here whose keys are never bound again:
	// drop them, freeing their pages, before any update.
	for _, name := range []string{"oid", "frontier"} {
		if err := tab.DropIndex(name); err != nil {
			return nil, nil, err
		}
	}
	sh := &shard{
		id: id, policy: pol, crawl: tab,
		rids:       make(map[int64]dirEntry, tab.Rows()),
		serverSeen: make(map[int32]int32),
		hosts:      make(map[int32]*hostState),
		notBefore:  make(map[int64]time.Time),
	}
	type flip struct {
		rid relstore.RID
		row relstore.Tuple
	}
	var flips []flip
	var entries []frontierEntry
	var harvest []HarvestPoint
	err := tab.Scan(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
		sh.rids[t[COID].Int()] = entryOf(rid, t)
		sh.serverSeen[SIDOf(t[CURL].S)]++
		if s := t[CSeq].Int(); s > sh.insertSeq {
			sh.insertSeq = s
		}
		switch int32(t[CStatus].Int()) {
		case StatusFrontier:
			key, err := frontierKeyOf(pol, t)
			if err != nil {
				return true, err
			}
			entries = append(entries, frontierEntry{key, rid})
		case StatusInflight:
			flips = append(flips, flip{rid, t})
		case StatusVisited:
			harvest = append(harvest, HarvestPoint{
				Seq: t[CLast].Int(), OID: t[COID].Int(), URL: t[CURL].S,
				Relevance: t[CRel].Float(), Kcid: int32(t[CKcid].Int()),
			})
		}
		return false, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, f := range flips {
		old := f.row.Clone()
		f.row[CStatus] = relstore.I32(StatusFrontier)
		key, err := frontierKeyOf(pol, f.row)
		if err != nil {
			return nil, nil, err
		}
		if err := sh.crawl.UpdateFrom(f.rid, old, f.row); err != nil {
			return nil, nil, err
		}
		sh.rids[f.row[COID].Int()] = entryOf(f.rid, f.row)
		entries = append(entries, frontierEntry{key, f.rid})
	}
	// Every in-flight row has flipped back: inflightRows starts at zero.
	sh.front = buildFrontierSet(entries)
	sh.frontierN.Store(int64(len(entries)))
	//focuslint:ignore locktower shard is under construction during resume and not yet published to any worker
	sh.recomputeHeadLocked()
	for sid, ch := range ss.Hosts {
		hs := &hostState{fails: ch.Fails, breaker: ch.Breaker}
		if ch.OpenRemain > 0 {
			hs.openUntil = now.Add(ch.OpenRemain)
		}
		if ch.NextFetchRemain > 0 {
			hs.nextFetch = now.Add(ch.NextFetchRemain)
		}
		sh.hosts[sid] = hs
	}
	for oid, d := range ss.NotBefore {
		if d > 0 {
			sh.notBefore[oid] = now.Add(d)
		}
	}
	return sh, harvest, nil
}
