// Package distiller implements the paper's topic distillation (§2.2):
// Kleinberg's HITS mutual recursion, specialized for resource discovery by
// (a) weighting the forward adjacency matrix with the relevance of the link
// target (EF[u,v] = relevance(v)) and the backward matrix with the relevance
// of the source (EB[u,v] = relevance(u)), so endorsement cannot leak between
// relevant and irrelevant pages; (b) dropping same-server edges (nepotism);
// and (c) admitting only authorities above a relevance threshold rho.
//
// Two I/O strategies are provided, matching Figure 8(d):
//
//   - IndexWalk: sequential LINK scan with per-edge index lookups and score
//     updates against the HUBS/AUTH tables — the persistent version of the
//     classic main-memory edge-walking implementation.
//   - Join: each half-iteration as a sort-merge join plus group-by, the SQL
//     of Figure 4. The paper measures this a factor of three faster. The
//     plan is compiled once per run: LINK is read and filtered once, sorted
//     once and laid out in its two join orders, and the iterations are
//     group-sum passes over those orders. Distill is that plan in memory
//     and returns the scores as arrays (it states the row-set rule and the
//     summation order); RunJoin is Distill plus one load of HUBS and AUTH.
//
// LINK only grows and a page's relevance changes where its CRAWL row is
// written, so the crawler does not rebuild the plan each epoch: it keeps
// one Arrangement, LINK sorted into the join's order, extends it by what
// LINK appended and the relevance changes logged since the last epoch, and
// runs it. Each epoch ranks the run's arrays (Rank) and publishes them
// whole; the crawler keeps no score table, and its score reads are index
// reads on the Ranking. HUBS and AUTH exist only where a caller builds
// them — the crawler's Tables and Figure 8(d)'s fixture.
package distiller

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// LinkRel is the read surface the distiller needs from the LINK relation:
// a sequential scan as typed edges. The crawler's striped linkgraph store,
// its snapshot and a snapshot's tail satisfy it, as does the crawler's
// Tables().Link; a plain *relstore.Table needs an adapter. The
// distiller is agnostic to how the edges are partitioned, as long as one
// logical relation comes back.
type LinkRel interface {
	ScanEdges(fn func(linkgraph.Edge) (bool, error)) error
}

// Tables names the relations the distiller reads and writes. The LINK
// relation must have columns (oid_src BIGINT, sid_src INT, oid_dst BIGINT,
// sid_dst INT, wgt_fwd DOUBLE, wgt_rev DOUBLE); CRAWL must contain
// (oid BIGINT, ..., relevance DOUBLE); HUBS and AUTH are (oid BIGINT,
// score DOUBLE), and Distill reads neither. RunJoin needs no index;
// RunIndexWalk states the indexes it probes.
type Tables struct {
	Link  LinkRel
	Crawl *relstore.Table
	Hubs  *relstore.Table
	Auth  *relstore.Table
}

// Config tunes a distillation run.
type Config struct {
	// Iterations of the mutual recursion (default 5; HITS converges fast).
	Iterations int
	// Rho is the relevance threshold for authorities (default 0.2).
	Rho float64
	// NoNepotismFilter disables the sid_src <> sid_dst predicate (ablation).
	NoNepotismFilter bool
	// Unweighted ignores wgt_fwd/wgt_rev and uses classic HITS edge weight
	// 1 (ablation).
	Unweighted bool
	// Relevance optionally supplies oid -> relevance directly (e.g. the
	// crawler's in-memory view of its sharded CRAWL relation), in which
	// case Tables.Crawl is not consulted for the rho filter and may be nil.
	// It feeds the rho filter only: wgt_fwd is read as Tables.Link returns
	// it, so over a bare linkgraph store (the benchmark's replay) it is the
	// weight LINK stored at ingest.
	Relevance map[int64]float64
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Rho <= 0 {
		c.Rho = 0.2
	}
	return c
}

// Breakdown records where one strategy's time went, the decomposition
// plotted in Figure 8(d).
type Breakdown struct {
	Scan   time.Duration // sequential LINK (or sorted-run) scanning
	Lookup time.Duration // HUBS/AUTH/CRAWL point lookups (index strategy)
	Update time.Duration // score writes
	Sort   time.Duration // sorting (join strategy)
}

// Total is the sum of all phases.
func (b Breakdown) Total() time.Duration { return b.Scan + b.Lookup + b.Update + b.Sort }

func (b *Breakdown) add(o Breakdown) {
	b.Scan += o.Scan
	b.Lookup += o.Lookup
	b.Update += o.Update
	b.Sort += o.Sort
}

// HubsAuthSchema is the shared schema of HUBS and AUTH.
func HubsAuthSchema() *relstore.Schema {
	return relstore.NewSchema(
		relstore.Column{Name: "oid", Kind: relstore.KInt64},
		relstore.Column{Name: "score", Kind: relstore.KFloat64},
	)
}

// seedHubs (re)initializes HUBS with score 1 for every distinct link
// source, the standard HITS start vector.
func seedHubs(tb Tables) error {
	if err := tb.Hubs.Truncate(); err != nil {
		return err
	}
	seen := make(map[int64]bool)
	err := tb.Link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		if !seen[e.Src] {
			seen[e.Src] = true
			_, err := tb.Hubs.Insert(relstore.Tuple{relstore.I64(e.Src), relstore.F64(1)})
			return false, err
		}
		return false, nil
	})
	return err
}

// normalize rescales a score table so scores sum to 1.
func normalize(tb *relstore.Table) error {
	var sum float64
	var rids []relstore.RID
	var rows []relstore.Tuple
	err := tb.Scan(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
		sum += t[1].Float()
		rids = append(rids, rid)
		rows = append(rows, t.Clone())
		return false, nil
	})
	if err != nil {
		return err
	}
	if sum == 0 {
		return nil
	}
	for i, rid := range rids {
		rows[i][1] = relstore.F64(rows[i][1].Float() / sum)
		if err := tb.Update(rid, rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// Scored is a page with its distilled score.
type Scored struct {
	OID   int64
	Score float64
}

// Ranking is one side's scores in rank order: score descending, oid
// ascending among equal scores. That is a strict total order, so a score
// set has exactly one ranking, and every read a monitor or the §3.4 boost
// makes is an index read or a prefix of it.
type Ranking []Scored

// rankOrder is Ranking's order as a comparison.
func rankOrder(a, b Scored) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.OID, b.OID)
}

// Rank sorts s into rank order, in place, and returns it: a stable LSD radix
// sort by oid, skipped when s already ascends by oid (as Run returns it), and
// then by the scores' bits (scoreKey). NaN scores, which rankOrder leaves
// unordered among themselves, land last, in ascending oid order.
func Rank(s []Scored) Ranking {
	return rank(s, make([]sortKey, len(s)), make([]sortKey, len(s)), make([]Scored, len(s)))
}

// rank is Rank through keys, tmp and out, each at least as long as s.
func rank(s []Scored, keys, tmp []sortKey, out []Scored) Ranking {
	keys = keys[:len(s)]
	for i, e := range s {
		keys[i] = sortKey{key: flip(e.OID), at: int32(i)}
	}
	if !slices.IsSortedFunc(keys, func(x, y sortKey) int { return cmp.Compare(x.key, y.key) }) {
		radixSort(keys, tmp)
	}
	for i, k := range keys {
		keys[i].key = scoreKey(s[k.at].Score)
	}
	radixSort(keys, tmp)
	for i, k := range keys {
		out[i] = s[k.at]
	}
	copy(s, out)
	return s
}

// scoreKey maps a score onto a key in rank order: higher scores first, −0
// as +0, and NaN after every number.
func scoreKey(f float64) uint64 {
	b := math.Float64bits(f)
	if f != f {
		return math.MaxUint64
	} else if f == 0 {
		b = 0
	}
	return b ^ (b>>63-1)>>1 // flips a positive score's magnitude bits
}

// IsRanked reports whether s is in rank order.
func IsRanked(s []Scored) bool { return slices.IsSortedFunc(s, rankOrder) }

// Top returns the k best entries: a prefix of r, shorter when r is.
func (r Ranking) Top(k int) Ranking { return r[:max(0, min(k, len(r)))] }

// Percentile returns the p-th percentile (0..1) score, used by the
// monitoring query that finds neglected neighbors of great hubs (§3.7) and
// by the §3.4 boost. The rank is nearest: the score at ascending position
// round(p*(n-1)). ok is false when r is empty — no distillation has
// published scores yet — so no percentile exists and a caller cannot
// mistake ψ=0 for a threshold.
func (r Ranking) Percentile(p float64) (psi float64, ok bool) {
	if len(r) == 0 {
		return 0, false
	}
	i := int(math.Round(p * float64(len(r)-1)))
	i = max(0, min(i, len(r)-1))
	return r[len(r)-1-i].Score, true
}

// Above returns the entries scoring strictly above psi: a prefix of r.
func (r Ranking) Above(psi float64) Ranking {
	return r[:sort.Search(len(r), func(i int) bool { return r[i].Score <= psi })]
}

// ReadScores reads a HUBS/AUTH table's rows, in scan order.
func ReadScores(tb *relstore.Table) ([]Scored, error) {
	out := make([]Scored, 0, tb.Rows())
	err := tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		out = append(out, Scored{OID: t[0].Int(), Score: t[1].Float()})
		return false, nil
	})
	return out, err
}

// WriteScores replaces a HUBS/AUTH table's rows with s, in that order, in
// batches: RunJoin's oids ascend, so an index on oid receives ascending
// runs and fills leaf after leaf at the tree's right edge. The batches are
// bounded so that the table's reusable batch stays small however many rows
// the table holds.
func WriteScores(tb *relstore.Table, s []Scored) error {
	if err := tb.Truncate(); err != nil {
		return err
	}
	const batchRows = 512
	row := relstore.Tuple{relstore.I64(0), relstore.F64(0)}
	for lo := 0; lo < len(s); lo += batchRows {
		b := tb.Batch()
		for _, e := range s[lo:min(lo+batchRows, len(s))] {
			row[0], row[1] = relstore.I64(e.OID), relstore.F64(e.Score)
			if err := b.Add(row); err != nil {
				return err
			}
		}
		if err := tb.InsertBatch(b); err != nil {
			return err
		}
	}
	return nil
}

// relevanceOf loads oid -> relevance from CRAWL (sequential scan; the index
// walk probes the CRAWL index instead). It reads the two columns in place:
// decoding whole rows, URLs included, was most of a post-crawl epoch's
// allocation.
func relevanceOf(crawl *relstore.Table) (map[int64]float64, error) {
	out := make(map[int64]float64, crawl.Rows())
	cols := []int{crawl.Schema.ColIndex("oid"), crawl.Schema.ColIndex("relevance")}
	err := crawl.ScanCols(cols, func(_ relstore.RID, v []relstore.Value) (bool, error) {
		out[v[0].Int()] = v[1].Float()
		return false, nil
	})
	return out, err
}

// weights are an edge's forward and reverse weights as a run reads them:
// fwd and rev, or 1 and 1 when cfg.Unweighted is set.
func (c Config) weights(fwd, rev float64) (float64, float64) {
	if c.Unweighted {
		return 1, 1
	}
	return fwd, rev
}

func (c Config) keepEdge(e linkgraph.Edge) bool {
	return c.NoNepotismFilter || e.SidSrc != e.SidDst
}

func checkTables(tb Tables) error {
	if tb.Link == nil || tb.Hubs == nil || tb.Auth == nil {
		return fmt.Errorf("distiller: missing tables")
	}
	return nil
}
