package distiller

import (
	"errors"
	"fmt"
	"time"

	"focus/internal/linkgraph"
	"focus/internal/relstore"
)

// errNoOidIndex is RunIndexWalk's refusal of a table it cannot probe.
var errNoOidIndex = errors.New("distiller: index walk needs an oid index on")

// RunIndexWalk executes HITS iterations the way pre-database
// implementations did: walk the edge list sequentially and, per edge, look
// up the endpoint's current score and update the other endpoint's
// accumulator through point index accesses. Persisted through the store,
// this is the random-I/O baseline the join strategy beats by ~3x in
// Figure 8(d).
//
// The walk probes an index named "oid" keyed EncodeKey(oid) on HUBS and
// AUTH, and on Crawl unless cfg.Relevance supplies the relevance (a nil
// Crawl, as in RunJoin, applies no rho filter). The crawl keeps none of
// them, so a caller adds them first; a missing one is an error naming the
// table.
func RunIndexWalk(db *relstore.DB, tb Tables, cfg Config) (Breakdown, error) {
	cfg = cfg.withDefaults()
	var bd Breakdown
	if err := checkTables(tb); err != nil {
		return bd, err
	}
	walked := []*relstore.Table{tb.Hubs, tb.Auth}
	if cfg.Relevance == nil && tb.Crawl != nil {
		walked = append(walked, tb.Crawl)
	}
	for _, t := range walked {
		if t.Index("oid") == nil {
			return bd, fmt.Errorf("%w: %s", errNoOidIndex, t.Name)
		}
	}
	if err := seedHubs(tb); err != nil {
		return bd, err
	}
	for it := 0; it < cfg.Iterations; it++ {
		half, err := walkHalf(tb, cfg, true)
		bd.add(half)
		if err != nil {
			return bd, err
		}
		half, err = walkHalf(tb, cfg, false)
		bd.add(half)
		if err != nil {
			return bd, err
		}
	}
	return bd, nil
}

func walkHalf(tb Tables, cfg Config, fwd bool) (Breakdown, error) {
	var bd Breakdown
	src, dst := tb.Hubs, tb.Auth
	if !fwd {
		src, dst = tb.Auth, tb.Hubs
	}
	srcIx := src.Index("oid")
	var crawlIx *relstore.Index
	var crawlRelCol int
	relOf := cfg.Relevance
	if fwd && relOf == nil && tb.Crawl != nil {
		crawlIx = tb.Crawl.Index("oid")
		crawlRelCol = tb.Crawl.Schema.ColIndex("relevance")
	}
	if !fwd {
		relOf = nil
	}
	if err := dst.Truncate(); err != nil {
		return bd, err
	}
	dstIx := dst.Index("oid") // truncation rebuilds indexes

	err := tb.Link.ScanEdges(func(e linkgraph.Edge) (bool, error) {
		tScan := time.Now()
		if !cfg.keepEdge(e) {
			bd.Scan += time.Since(tScan)
			return false, nil
		}
		from, to := e.Src, e.Dst
		w, rev := cfg.weights(e.WgtFwd, e.WgtRev)
		if !fwd {
			from, to, w = to, from, rev
		}
		bd.Scan += time.Since(tScan)

		// Look up the source endpoint's current score.
		tLook := time.Now()
		srcRID, ok, err := srcIx.Lookup(relstore.EncodeKey(relstore.I64(from)))
		if err != nil {
			return true, err
		}
		if !ok {
			bd.Lookup += time.Since(tLook)
			return false, nil
		}
		srcRow, err := src.Get(srcRID)
		if err != nil {
			return true, err
		}
		score := srcRow[1].Float() * w
		// The forward half checks the authority's relevance against rho.
		if relOf != nil {
			if relOf[to] <= cfg.Rho {
				bd.Lookup += time.Since(tLook)
				return false, nil
			}
		} else if crawlIx != nil {
			cRID, ok, err := crawlIx.Lookup(relstore.EncodeKey(relstore.I64(to)))
			if err != nil {
				return true, err
			}
			if !ok {
				bd.Lookup += time.Since(tLook)
				return false, nil
			}
			cRow, err := tb.Crawl.Get(cRID)
			if err != nil {
				return true, err
			}
			if cRow[crawlRelCol].Float() <= cfg.Rho {
				bd.Lookup += time.Since(tLook)
				return false, nil
			}
		}
		bd.Lookup += time.Since(tLook)
		if score == 0 {
			return false, nil
		}

		// Accumulate into the destination endpoint's row.
		tUpd := time.Now()
		dRID, ok, err := dstIx.Lookup(relstore.EncodeKey(relstore.I64(to)))
		if err != nil {
			return true, err
		}
		if ok {
			dRow, err := dst.Get(dRID)
			if err != nil {
				return true, err
			}
			dRow[1] = relstore.F64(dRow[1].Float() + score)
			if err := dst.Update(dRID, dRow); err != nil {
				return true, err
			}
		} else {
			_, err := dst.Insert(relstore.Tuple{relstore.I64(to), relstore.F64(score)})
			if err != nil {
				return true, err
			}
		}
		bd.Update += time.Since(tUpd)
		return false, nil
	})
	if err != nil {
		return bd, err
	}
	tUpd := time.Now()
	err = normalize(dst)
	bd.Update += time.Since(tUpd)
	return bd, err
}
