package crawler

// Durable checkpoint and resume. A checkpoint captures the crawl at the same
// consistency point the distillation snapshot uses — the full barrier — so
// every persisted relation (CRAWL shards, LINK stripes) reflects one cut of
// the visit sequence. What is NOT derivable from the relations goes into
// framed records in two small key/value tables: the crawler state (visit
// sequence, counters, politeness clocks) and the CheckpointExtra blob in
// CKPT, rewritten every checkpoint, and the published scores in
// CKPT#scores, rewritten only when an epoch has published since. Everything
// else — harvest log, per-shard oid directory and frontier set,
// serverSeen/insertSeq, frontier counts, the link store's out-edge
// directories — is rebuilt from the relations at Resume, which keeps the
// checkpoint write small and the single source of truth on disk.
//
// A record is one payload, whatever its size: a 17-byte header (kind, the
// published epoch it was written at, payload length, CRC-32 of the payload)
// and the payload, split into rows keyed "<kind>#<i>" of at most
// relstore.MaxRecordLen bytes each. A change to these records or to the
// tables the crawl keeps is a change of the file's layout: it bumps
// relstore's layout version, which refuses files of any other.
//
// A row checked out at the quiesce point is a frontier row on disk: checkout
// marks it in flight only in its shard's oid directory, so the file holds no
// row in flight and resume writes nothing to put one back. Bit-identical
// resume is pinned under the same discipline as the one-shard, one-stripe
// goldens: Workers=1 (so the quiesce point always falls between complete()
// tails, with nothing in flight) and deterministic fetching. Multi-worker
// checkpoints are still crash-consistent — no lost or duplicated visits —
// but rows checked out at the quiesce point resume as frontier rows and
// their fetch attempts are re-spent, so counters and visit order may differ
// from the uninterrupted run.

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
	"time"

	"focus/internal/classifier"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

const (
	ckptTable       = "CKPT"
	ckptScoresTable = "CKPT#scores"
)

// Record kinds: the first byte of a record's header, and by recordNames
// the prefix of its rows' keys.
const (
	recState byte = 1 + iota
	recExtra
	recScores
)

var recordNames = [...]string{recState: "state", recExtra: "extra", recScores: "scores"}

// recordHdr is a record header's length: kind (1), epoch (8), payload
// length (4), payload CRC-32 (4).
const recordHdr = 17

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
// JSON in the CKPT table's state record. Fields that are pure functions of the
// persisted relations (harvest log, serverSeen, insertSeq, frontier counts)
// are deliberately absent — Resume recomputes them.
type CheckpointState struct {
	// Fetches is the attempt counter net of fetches whose rows were still
	// in flight at the quiesce point (those re-run after resume, so charging
	// them would double-count). Visited also numbers the visits: the next
	// one is Visited+1.
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

	SinceCkpt int64 `json:"since_ckpt"`
	Distills  int   `json:"distills"`
	// Epoch is the published distillation epoch; a checkpoint holds
	// epochMu, so no epoch is mid-compute and snapshotted == published here
	// (unless an epoch failed, which aborts the crawl). The score record
	// must carry the same epoch.
	Epoch int64 `json:"epoch"`

	// The physical partitioning, fixed at creation; Resume attaches exactly
	// these tables and refuses a mode or policy mismatch. Shards holds one
	// entry per frontier shard.
	FrontierShards int    `json:"frontier_shards"`
	LinkStripes    int    `json:"link_stripes"`
	Mode           Mode   `json:"mode"`
	Policy         string `json:"policy"`

	Shards []CheckpointShard `json:"shards"`

	// Extra is the opaque Config.CheckpointExtra blob (the synthetic web's
	// RNG/fault state rides here). Stored as its own record, not in the
	// JSON.
	Extra []byte `json:"-"`
}

// writeRecord appends payload to tab as one record of the given kind,
// stamped with epoch, in rows of at most relstore.MaxRecordLen bytes.
func writeRecord(tab *relstore.Table, kind byte, epoch int64, payload []byte) error {
	rec := make([]byte, recordHdr, recordHdr+len(payload))
	rec[0] = kind
	binary.LittleEndian.PutUint64(rec[1:], uint64(epoch))
	binary.LittleEndian.PutUint32(rec[9:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[13:], crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	for i := 0; len(rec) > 0; i++ {
		key := recordNames[kind] + "#" + strconv.Itoa(i)
		n := min(len(rec), relstore.MaxRecordLen-4-len(key)) // 4: the two length prefixes
		if _, err := tab.Insert(relstore.Tuple{relstore.Str(key), relstore.Str(string(rec[:n]))}); err != nil {
			return err
		}
		rec = rec[n:]
	}
	return nil
}

// record is one decoded record: the epoch it was written at and its
// payload.
type record struct {
	epoch   int64
	payload []byte
}

// readRecords decodes tab's records by kind. A row must name a kind and
// come in its record's chunk order, and a record's header must match its
// kind, its length and its CRC; anything else is refused. Nothing is
// allocated past the rows' bytes.
func readRecords(tab *relstore.Table) (map[byte]record, error) {
	recs, bufs, chunks := map[byte]record{}, map[byte][]byte{}, map[byte]int{}
	err := tab.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		name, idx, chunked := strings.Cut(t[0].S, "#")
		kind := slices.Index(recordNames[:], name)
		switch {
		case kind <= 0 || !chunked:
			return true, fmt.Errorf("crawler: checkpoint row %q names no record chunk", t[0].S)
		case idx != strconv.Itoa(chunks[byte(kind)]):
			return true, fmt.Errorf("crawler: checkpoint row %q is out of order", t[0].S)
		default:
			bufs[byte(kind)] = append(bufs[byte(kind)], t[1].S...)
			chunks[byte(kind)]++
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	for kind, b := range bufs {
		if len(b) < recordHdr || b[0] != kind || uint64(binary.LittleEndian.Uint32(b[9:])) != uint64(len(b)-recordHdr) ||
			crc32.ChecksumIEEE(b[recordHdr:]) != binary.LittleEndian.Uint32(b[13:]) {
			return nil, fmt.Errorf("crawler: checkpoint %s record fails its header", recordNames[kind])
		}
		recs[kind] = record{int64(binary.LittleEndian.Uint64(b[1:])), b[recordHdr:]}
	}
	return recs, nil
}

// encodeScores is the score record's payload: the hub count, then the hubs
// and the authorities as (oid, score) pairs, little-endian, in rank order.
func encodeScores(r *scores) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(r.hubs)))
	b, _ = binary.Append(b, binary.LittleEndian, r.hubs)
	b, _ = binary.Append(b, binary.LittleEndian, r.auth)
	return b
}

// readScoreRecord decodes db's score record, refusing one that is not whole
// entries or not in rank order. A file without one is at epoch 0, with no
// scores.
func readScoreRecord(db *relstore.DB) (*scores, error) {
	recs, err := readRecords(db.Table(ckptScoresTable))
	rec, ok := recs[recScores]
	if err != nil || !ok {
		return &scores{}, err
	}
	b := rec.payload
	n := (len(b) - 8) / 16
	if len(b) < 8 || (len(b)-8)%16 != 0 || binary.LittleEndian.Uint64(b) > uint64(n) {
		return nil, fmt.Errorf("crawler: checkpoint score record of %d bytes is no hub count and whole entries", len(b))
	}
	all := make([]distiller.Scored, n)
	if _, err := binary.Decode(b[8:], binary.LittleEndian, all); err != nil {
		return nil, err
	}
	nh := binary.LittleEndian.Uint64(b)
	r := &scores{epoch: rec.epoch, hubs: all[:nh:nh], auth: all[nh:]}
	if !distiller.IsRanked(r.hubs) || !distiller.IsRanked(r.auth) {
		return nil, errors.New("crawler: checkpoint score record is not in rank order")
	}
	return r, nil
}

// Checkpoint quiesces the crawl at a distill-grade consistency point and
// persists everything needed for Resume: it takes epochMu (so no epoch is
// mid-compute and the published scores are the last snapshot's) and the full
// barrier, writes the state and extra records and, if an epoch has
// published since the last one, the score record, and drives relstore's
// durable checkpoint (journal, flush, manifest, sync). Safe to call between
// Runs as well as during one.
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
	if _, err := c.adoptLocked(); err != nil {
		return err
	}
	c.lockAll()
	defer c.unlockAll()
	if seen >= 0 && c.checkpoints.Load() != seen {
		return nil
	}
	return c.checkpointLocked()
}

// checkpointLocked does the work under the barrier.
//
//focuslint:lock requires=stripe*,shard*
func (c *Crawler) checkpointLocked() error {
	var inflightRows int64
	for _, sh := range c.shards {
		inflightRows += sh.inflightRows
	}
	now := time.Now()
	pub := c.pub.Load()
	st := CheckpointState{
		Fetches:        c.fetches.Load() - inflightRows,
		Visited:        c.visited.Load(),
		Failed:         c.failed.Load(),
		Dead:           c.dead.Load(),
		Retries:        c.retries.Load(),
		TimeoutFails:   c.timeoutFails.Load(),
		NotFoundFails:  c.notFoundFails.Load(),
		LimitedFails:   c.limitedFails.Load(),
		BreakerTrips:   c.breakerTrips.Load(),
		SinceCkpt:      c.sinceCkpt.Load(),
		Distills:       int(c.snapEpoch.Load()),
		Epoch:          pub.epoch,
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
	ck, sc := c.db.Table(ckptTable), c.db.Table(ckptScoresTable)
	if ck == nil || sc == nil {
		return errors.New("crawler: checkpoint tables missing (crawler was not created on this DB)")
	}
	if err := ck.Truncate(); err != nil {
		return err
	}
	if err := writeRecord(ck, recState, st.Epoch, blob); err != nil {
		return err
	}
	if c.cfg.CheckpointExtra != nil {
		extra, err := c.cfg.CheckpointExtra()
		if err != nil {
			return err
		}
		if err := writeRecord(ck, recExtra, st.Epoch, extra); err != nil {
			return err
		}
	}
	if pub != c.ckptScores {
		if err := sc.Truncate(); err != nil {
			return err
		}
		if err := writeRecord(sc, recScores, pub.epoch, encodeScores(pub)); err != nil {
			return err
		}
	}
	if err := c.db.Checkpoint(); err != nil {
		return err
	}
	c.ckptScores = pub
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
	recs, err := readRecords(ck)
	if err != nil {
		return nil, err
	}
	state, ok := recs[recState]
	if !ok {
		return nil, errors.New("crawler: checkpoint table holds no state record")
	}
	st := &CheckpointState{}
	if err := json.Unmarshal(state.payload, st); err != nil {
		return nil, fmt.Errorf("crawler: checkpoint state decode: %w", err)
	}
	if st.FrontierShards <= 0 || st.LinkStripes <= 0 {
		return nil, fmt.Errorf("crawler: checkpoint state invalid: %d shards, %d stripes",
			st.FrontierShards, st.LinkStripes)
	}
	if len(st.Shards) != st.FrontierShards {
		return nil, fmt.Errorf("crawler: checkpoint state invalid: %d shard records for %d frontier shards",
			len(st.Shards), st.FrontierShards)
	}
	if extra, ok := recs[recExtra]; ok {
		st.Extra = extra.payload
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
// are attached — a row in flight at the checkpoint is a frontier row there —
// and all derivable in-memory state — harvest log, the shards'
// oid directories, frontier sets and counters, the link store's out-edge
// directories — is recomputed from the relations; the visit logs are the
// forward weights. The checkpoint's published scores are published again.
// cfg supplies the knobs for the continued crawl (budget, workers,
// politeness); the shard and stripe counts (a property of the stored
// tables, whatever cfg.Workers says), mode, and policy come from the
// checkpoint, and a cfg.Mode mismatch is refused, as is a file without the
// score table. The fetcher must be positioned to continue (see
// CheckpointState.Extra).
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
	if db.Table(ckptScoresTable) == nil {
		return nil, fmt.Errorf("crawler: resume: the checkpoint has no %s table", ckptScoresTable)
	}
	c := newCrawler(db, model, fetcher, cfg, pol)

	now := time.Now()
	var visited int64
	for i, ss := range st.Shards {
		sh, err := attachShard(db, i, pol, ss, now)
		if err != nil {
			return nil, err
		}
		visited += int64(len(sh.visits))
		c.shards = append(c.shards, sh)
	}
	if visited != st.Visited {
		return nil, fmt.Errorf("crawler: checkpoint inconsistent: %d visited rows, counter says %d",
			visited, st.Visited)
	}
	c.visited.Store(st.Visited)

	if c.links, err = linkgraph.Attach(db, st.LinkStripes); err != nil {
		return nil, err
	}

	// The scores published at the checkpoint are its score record's. A
	// HUBS/AUTH pair Tables materialized before the checkpoint is dropped,
	// freeing its pages.
	r, err := readScoreRecord(db)
	if err != nil {
		return nil, err
	}
	if r.epoch != st.Epoch {
		return nil, fmt.Errorf("crawler: resume: the checkpoint's score record is epoch %d, its state epoch %d", r.epoch, st.Epoch)
	}
	for _, name := range []string{"HUBS", "AUTH"} {
		if err := db.DropTable(name); err != nil {
			return nil, err
		}
	}
	c.ckptScores = r
	c.pub.Store(r)

	c.sinceCkpt.Store(st.SinceCkpt)
	c.snapEpoch.Store(st.Epoch)
	c.fetches.Store(st.Fetches)
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
// each row's status and relevance), the frontier set,
// serverSeen/insertSeq/frontierN and the visit log (sorted by Seq) from the
// rows, republishes the head hint, and rebases the persisted politeness
// clocks. It reads the file and writes nothing: a row that was in flight at
// the checkpoint is a frontier row in its heap, so its fetch, which died
// with the crashed process, is simply spent again, and nothing starts in
// flight.
func attachShard(db *relstore.DB, id int, pol Policy, ss CheckpointShard, now time.Time) (*shard, error) {
	tab := db.Table(fmt.Sprintf("CRAWL#%d", id))
	if tab == nil {
		return nil, fmt.Errorf("crawler: resume: missing table CRAWL#%d", id)
	}
	sh := &shard{
		id: id, policy: pol, crawl: tab,
		rids:       make(map[int64]dirEntry, tab.Rows()),
		serverSeen: make(map[int32]int32),
		hosts:      make(map[int32]*hostState),
		notBefore:  make(map[int64]time.Time),
	}
	var entries []frontierEntry
	// One tuple serves every row.
	err := tab.ScanShared(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
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
		case StatusVisited:
			sh.visits = append(sh.visits, HarvestPoint{
				Seq: t[CLast].Int(), OID: t[COID].Int(), URL: t[CURL].S,
				Relevance: t[CRel].Float(), Kcid: int32(t[CKcid].Int()),
			})
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(sh.visits, func(a, b HarvestPoint) int { return cmp.Compare(a.Seq, b.Seq) })
	sh.front = buildFrontierSet(entries)
	sh.frontierN.Store(int64(len(entries)))
	sh.mu.Lock()
	sh.recomputeHeadLocked()
	sh.mu.Unlock()
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
	return sh, nil
}
