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
//     plan is compiled once per run: LINK is read, filtered and sorted into
//     its two join orders once, the iterations are group-sum passes over
//     those orders, and HUBS and AUTH are written once at the end (RunJoin
//     states the row-set rule and the summation order).
package distiller

import (
	"fmt"
	"math"
	"sort"
	"time"

	"focus/internal/relstore"
)

// LinkRel is the read surface the distiller needs from the LINK relation:
// a sequential scan. A plain *relstore.Table satisfies it, and so do the
// crawler's striped linkgraph store and its barrier-locked view — the
// distiller is agnostic to how the edges are partitioned, as long as one
// logical relation comes back.
type LinkRel interface {
	Scan(fn func(rid relstore.RID, t relstore.Tuple) (bool, error)) error
}

// Tables names the relations the distiller reads and writes. The LINK
// relation must have columns (oid_src BIGINT, sid_src INT, oid_dst BIGINT,
// sid_dst INT, wgt_fwd DOUBLE, wgt_rev DOUBLE); CRAWL must contain
// (oid BIGINT, ..., relevance DOUBLE) with an index named "oid"; HUBS and
// AUTH are (oid BIGINT, score DOUBLE) with an index named "oid".
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

// link column positions (see Tables doc).
const (
	lSrc = iota
	lSidSrc
	lDst
	lSidDst
	lWgtFwd
	lWgtRev
)

// seedHubs (re)initializes HUBS with score 1 for every distinct link
// source, the standard HITS start vector.
func seedHubs(tb Tables) error {
	if err := tb.Hubs.Truncate(); err != nil {
		return err
	}
	seen := make(map[int64]bool)
	err := tb.Link.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		src := t[lSrc].Int()
		if !seen[src] {
			seen[src] = true
			_, err := tb.Hubs.Insert(relstore.Tuple{relstore.I64(src), relstore.F64(1)})
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

// scoredBetter reports whether a outranks b in Top's output order
// (score DESC, oid ASC on ties) — a strict total order, so the bounded
// selection below is deterministic regardless of scan order.
func scoredBetter(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.OID < b.OID
}

// Top returns the k highest-scored rows of a HUBS/AUTH table, in
// (score DESC, oid ASC) order. Monitors run this over the full HUBS/AUTH
// relation on every query, so selection is a bounded min-heap of size k
// (heap[0] is the weakest kept row): O(n log k) and k live entries,
// against the old sort-everything O(n log n) with an n-row copy.
func Top(tb *relstore.Table, k int) ([]Scored, error) {
	if k <= 0 {
		return nil, nil
	}
	heap := make([]Scored, 0, k)
	err := tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		s := Scored{OID: t[0].Int(), Score: t[1].Float()}
		if len(heap) < k {
			heap = append(heap, s)
			// Sift up: parent must not outrank its children in *reverse*
			// order (the heap keeps the weakest at the root).
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !scoredBetter(heap[parent], heap[i]) {
					break
				}
				heap[parent], heap[i] = heap[i], heap[parent]
				i = parent
			}
			return false, nil
		}
		if !scoredBetter(s, heap[0]) {
			return false, nil // weaker than everything kept
		}
		heap[0] = s
		for i := 0; ; {
			weakest := i
			if l := 2*i + 1; l < len(heap) && scoredBetter(heap[weakest], heap[l]) {
				weakest = l
			}
			if r := 2*i + 2; r < len(heap) && scoredBetter(heap[weakest], heap[r]) {
				weakest = r
			}
			if weakest == i {
				break
			}
			heap[i], heap[weakest] = heap[weakest], heap[i]
			i = weakest
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(heap, func(i, j int) bool { return scoredBetter(heap[i], heap[j]) })
	return heap, nil
}

// Percentile returns the p-th percentile (0..1) score of a score table,
// used by the monitoring query that finds neglected neighbors of great
// hubs (§3.7). The rank is nearest (round(p*(n-1))), not floored — the
// floor truncation systematically biased every percentile low, most
// visibly the top-decile hub threshold on small score tables. ok is false
// when the table is empty — no distillation has published scores yet — in
// which case no percentile exists; returning (0, nil) here used to make
// MissedNeighbors silently treat ψ=0 as a real threshold.
func Percentile(tb *relstore.Table, p float64) (psi float64, ok bool, err error) {
	var scores []float64
	err = tb.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		scores = append(scores, t[1].Float())
		return false, nil
	})
	if err != nil || len(scores) == 0 {
		return 0, false, err
	}
	sort.Float64s(scores)
	i := int(math.Round(p * float64(len(scores)-1)))
	if i < 0 {
		i = 0
	}
	if i >= len(scores) {
		i = len(scores) - 1
	}
	return scores[i], true, nil
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

func (c Config) fwdWeight(t relstore.Tuple) float64 {
	if c.Unweighted {
		return 1
	}
	return t[lWgtFwd].Float()
}

func (c Config) revWeight(t relstore.Tuple) float64 {
	if c.Unweighted {
		return 1
	}
	return t[lWgtRev].Float()
}

func (c Config) keepEdge(t relstore.Tuple) bool {
	return c.NoNepotismFilter || t[lSidSrc].Int() != t[lSidDst].Int()
}

func checkTables(tb Tables) error {
	if tb.Link == nil || tb.Hubs == nil || tb.Auth == nil {
		return fmt.Errorf("distiller: missing tables")
	}
	return nil
}
