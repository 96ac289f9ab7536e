package main

import (
	"fmt"
	"math"
	"time"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/linkgraph"
	"focus/internal/relstore"
	"focus/internal/textproc"
	"focus/internal/webgraph"
)

// replayResult is what the stage replay measured.
type replayResult struct {
	spans  []span
	values map[string]float64
	// layerTime is the time inside layer calls: every span under a visit.
	layerTime time.Duration
	// mismatches counts visits whose replayed relevance is not the crawl's.
	mismatches int
}

// stream16Docs is how many of the crawl's first documents the replay keeps
// for the batched-classification measurement: sixteen batches of sixteen.
const stream16Docs = 256

// replay walks a finished crawl's harvest log in visit order on one
// goroutine, against a fresh store of the workload's kind at path, and
// calls each layer's public functions with the arguments the crawl gave
// them, one span per call under one root span per visit. It honours the
// workload's switches — no DOCUMENT rows under SkipDocuments, no snapshot
// or epoch without distillation, checkpoints only on a durable store — so
// a stage the workload does not run has no spans and reports 0.
//
// What the replay leaves out is what crawler.residual_share measures:
// checkout, the lock tower, the harvest log, the hub-neighbour boost and
// everything else no public layer call explains.
func replay(w workload, web *webgraph.Web, model *classifier.Model, log []crawler.HarvestPoint, path string, t0 time.Time) (*replayResult, error) {
	db, err := openStore(w, path)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	stripes := w.workers()
	links, err := linkgraph.New(db, stripes)
	if err != nil {
		return nil, err
	}
	oidKey := func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) }
	crawl, err := db.CreateTable("CRAWL", crawler.CrawlSchema())
	if err != nil {
		return nil, err
	}
	oidIx, err := crawl.AddIndex("oid", oidKey)
	if err != nil {
		return nil, err
	}
	if _, err := crawl.AddIndex("frontier", crawler.AggressiveDiscovery().Key); err != nil {
		return nil, err
	}
	var docs []*relstore.Table
	if !w.Crawl.SkipDocuments {
		for i := 0; i < stripes; i++ {
			tb, err := db.CreateTable(fmt.Sprintf("DOCUMENT#%d", i), classifier.DocSchema())
			if err != nil {
				return nil, err
			}
			docs = append(docs, tb)
		}
	}
	var scores [2]*relstore.Table // HUBS, AUTH
	if w.Crawl.DistillEvery > 0 {
		for i, name := range []string{"HUBS", "AUTH"} {
			if scores[i], err = db.CreateTable(name, distiller.HubsAuthSchema()); err != nil {
				return nil, err
			}
			if _, err := scores[i].AddIndex("oid", oidKey); err != nil {
				return nil, err
			}
		}
	}

	// The replay's CRAWL relation: one unsharded table with the crawler's
	// schema, oid index and frontier priority index. relOf mirrors its
	// relevance column for the distiller's rho filter.
	relOf := make(map[int64]float64)
	serverSeen := make(map[int32]int32)
	var insertSeq int64
	lookup := func(oid int64) (relstore.RID, relstore.Tuple, bool, error) {
		rid, ok, err := oidIx.Lookup(relstore.EncodeKey(relstore.I64(oid)))
		if err != nil || !ok {
			return relstore.RID{}, nil, false, err
		}
		row, err := crawl.Get(rid)
		return rid, row, err == nil, err
	}
	enqueue := func(url string, rel float64) error {
		oid, sid := crawler.OIDOf(url), crawler.SIDOf(url)
		serverSeen[sid]++
		insertSeq++
		relOf[oid] = rel
		_, err := crawl.Insert(relstore.Tuple{
			relstore.I64(oid), relstore.Str(url), relstore.F64(rel),
			relstore.I32(0), relstore.I32(serverSeen[sid]), relstore.I64(0),
			relstore.I32(0), relstore.I32(crawler.StatusFrontier), relstore.I64(insertSeq),
		})
		return err
	}
	for _, u := range web.Seeds(web.Cfg.Tree.ByName(goodTopic).ID, seedURLs) {
		if err := enqueue(u, 1); err != nil {
			return nil, err
		}
	}
	visitedRel := func(e linkgraph.Edge) (float64, error) {
		_, row, ok, err := lookup(e.Dst)
		if err != nil {
			return 0, err
		}
		if ok && int32(row[crawler.CStatus].Int()) == crawler.StatusVisited {
			return row[crawler.CRel].Float(), nil
		}
		return e.WgtFwd, nil
	}

	tr := newTracer(t0, db.Pool())
	out := &replayResult{values: map[string]float64{}}
	var (
		terms, docRows, offered, inserted int64
		sample                            []classifier.BatchDoc
		epochs                            distiller.Breakdown
		lastEdges                         int64
		ckptWrites                        []float64
	)
	for i, h := range log {
		root := tr.begin("visit", h.Seq, -1)
		child := func(name string) int32 { return tr.begin(name, h.Seq, root) }

		s := child("webgraph.fetch")
		var page *webgraph.FetchResult
		for {
			// The web scripts transient timeouts; a retry is another call.
			if page, err = web.Fetch(h.URL); err == nil || !webgraph.IsTransient(err) {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay fetch %s: %w", h.URL, err)
		}

		s = child("textproc.vectorize")
		vec := textproc.VectorOfTokens(page.Tokens)
		tr.end(s)
		terms += int64(len(vec))

		s = child("classifier.classify")
		post := model.Classify(vec)
		rel := model.Relevance(post)
		leaf := model.BestLeaf(post)
		tr.end(s)
		if math.Abs(rel-h.Relevance) > 1e-9 || int32(leaf) != h.Kcid {
			out.mismatches++
		}
		if len(sample) < stream16Docs {
			sample = append(sample, classifier.BatchDoc{DID: h.OID, Vec: vec})
		}

		// Mark the row visited (the shard-owned half of crawler.complete).
		s = child("relstore.frontier")
		rid, row, ok, err := lookup(h.OID)
		if err == nil && !ok {
			err = fmt.Errorf("visit %d of %s: no CRAWL row", h.Seq, h.URL)
		}
		if err == nil {
			row[crawler.CRel] = relstore.F64(rel)
			row[crawler.CKcid] = relstore.I32(int32(leaf))
			row[crawler.CLast] = relstore.I64(h.Seq)
			row[crawler.CStatus] = relstore.I32(crawler.StatusVisited)
			err = crawl.Update(rid, row)
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
		relOf[h.OID] = rel

		if docs != nil {
			s = child("classifier.insertdoc")
			err = classifier.InsertDoc(docs[int(uint64(h.OID)%uint64(len(docs)))], h.OID, vec)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			docRows += int64(len(vec))
		}

		s = child("linkgraph.sweep")
		err = links.UpdateIncomingFwd(h.OID, rel)
		tr.end(s)
		if err != nil {
			return nil, err
		}

		s = child("linkgraph.apply")
		var batch linkgraph.Batch
		urls := make([]string, 0, len(page.Outlinks))
		for _, outURL := range page.Outlinks {
			dst := crawler.OIDOf(outURL)
			if dst == h.OID {
				continue
			}
			batch.Add(linkgraph.Edge{
				Src: h.OID, SidSrc: page.ServerID,
				Dst: dst, SidDst: crawler.SIDOf(outURL),
				WgtFwd: rel, WgtRev: rel,
			})
			urls = append(urls, outURL)
		}
		fresh, err := links.Apply(&batch, visitedRel)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		offered += int64(batch.Len())

		// Enqueue new targets, raise queued ones a better citer found.
		s = child("relstore.frontier")
		for j, e := range batch.Edges() {
			if !fresh[j] {
				continue
			}
			inserted++
			rid, row, known, lerr := lookup(e.Dst)
			switch {
			case lerr != nil:
				err = lerr
			case !known:
				err = enqueue(urls[j], rel)
			case int32(row[crawler.CStatus].Int()) == crawler.StatusFrontier && rel > row[crawler.CRel].Float():
				row[crawler.CRel] = relstore.F64(rel)
				relOf[e.Dst] = rel
				err = crawl.Update(rid, row)
			}
			if err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}

		if every := w.Crawl.DistillEvery; every > 0 && int64(i+1)%every == 0 {
			s = child("linkgraph.snapshot")
			links.LockAll()
			snap, err := links.SnapshotLocked()
			links.UnlockAll()
			tr.end(s)
			if err != nil {
				return nil, err
			}
			dcfg := w.Crawl.Distill
			dcfg.Relevance = relOf // read only while RunJoin runs, on this goroutine
			s = child("distiller.epoch")
			bd, err := distiller.RunJoin(db, distiller.Tables{Link: snap, Hubs: scores[0], Auth: scores[1]}, dcfg)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			epochs.Scan += bd.Scan
			epochs.Lookup += bd.Lookup
			epochs.Update += bd.Update
			epochs.Sort += bd.Sort
			lastEdges = snap.Rows()
		}
		if every := w.Crawl.CheckpointEvery; every > 0 && db.Durable() && int64(i+1)%every == 0 {
			_, w0 := db.Disk().Stats().Snapshot()
			s = child("relstore.checkpoint")
			err = db.Checkpoint()
			tr.end(s)
			if err != nil {
				return nil, err
			}
			_, w1 := db.Disk().Stats().Snapshot()
			ckptWrites = append(ckptWrites, float64(w1-w0))
		}
		tr.end(root)
	}

	// Batched classification over the same vectors, for item B's choice
	// between the inline and the batched path.
	var stream time.Duration
	for lo := 0; lo+16 <= len(sample); lo += 16 {
		t := time.Now()
		if _, err := model.BulkClassifyStream(sample[lo:lo+16], classifier.BulkOptions{}); err != nil {
			return nil, err
		}
		stream += time.Since(t)
	}

	// Fold the spans into per-visit numbers.
	type sum struct {
		dur           time.Duration
		fetches, heap int64
		each          []float64 // per-span milliseconds
	}
	by := map[string]*sum{}
	for _, sp := range tr.spans {
		a := by[sp.Name]
		if a == nil {
			a = &sum{}
			by[sp.Name] = a
		}
		a.dur += sp.dur()
		a.fetches += sp.PoolFetches
		a.heap += sp.AllocBytes
		a.each = append(a.each, ms(sp.dur()))
		if sp.Parent >= 0 {
			out.layerTime += sp.dur()
		}
	}
	get := func(name string) *sum {
		if a := by[name]; a != nil {
			return a
		}
		return &sum{}
	}
	n := float64(len(log))
	v := out.values
	v["textproc.vectorize_us_per_visit"] = ratio(us(get("textproc.vectorize").dur), n)
	v["textproc.terms_per_visit"] = ratio(float64(terms), n)
	v["classifier.classify_us_per_visit"] = ratio(us(get("classifier.classify").dur), n)
	v["classifier.insertdoc_us_per_visit"] = ratio(us(get("classifier.insertdoc").dur), n)
	v["classifier.doc_rows_per_visit"] = ratio(float64(docRows), n)
	v["classifier.stream16_us_per_doc"] = ratio(us(stream), float64(len(sample)/16*16))
	v["linkgraph.apply_us_per_visit"] = ratio(us(get("linkgraph.apply").dur), n)
	v["linkgraph.sweep_us_per_visit"] = ratio(us(get("linkgraph.sweep").dur), n)
	v["linkgraph.edges_per_visit"] = ratio(float64(offered), n)
	v["linkgraph.dup_edge_ratio"] = ratio(float64(offered-inserted), float64(offered))
	v["linkgraph.snapshot_ms_p50"] = median(get("linkgraph.snapshot").each)
	v["distiller.epoch_ms_p50"] = median(get("distiller.epoch").each)
	v["distiller.epoch_ms_max"] = quantile(get("distiller.epoch").each, 1)
	v["distiller.sort_share"] = ratio(epochs.Sort.Seconds(), epochs.Total().Seconds())
	v["distiller.scan_share"] = ratio(epochs.Scan.Seconds(), epochs.Total().Seconds())
	v["distiller.update_share"] = ratio(epochs.Update.Seconds(), epochs.Total().Seconds())
	v["distiller.edges_last_epoch"] = float64(lastEdges)
	v["relstore.frontier_us_per_visit"] = ratio(us(get("relstore.frontier").dur), n)
	v["relstore.checkpoint_ms_p50"] = median(get("relstore.checkpoint").each)
	v["relstore.checkpoint_writes_p50"] = median(ckptWrites)
	for short, name := range map[string]string{
		"vectorize": "textproc.vectorize", "classify": "classifier.classify",
		"insertdoc": "classifier.insertdoc", "apply": "linkgraph.apply",
		"sweep": "linkgraph.sweep", "frontier": "relstore.frontier",
	} {
		v["runtime.alloc_kib_per_visit."+short] = ratio(float64(get(name).heap)/1024, n)
		v["relstore.fetches_per_visit."+short] = ratio(float64(get(name).fetches), n)
	}
	// Vectorizing and classifying never touch the pool, so they have no
	// fetch metric.
	delete(v, "relstore.fetches_per_visit.vectorize")
	delete(v, "relstore.fetches_per_visit.classify")
	v["bench.replay_us_per_visit"] = ratio(us(get("visit").dur), n)
	out.spans = tr.spans
	return out, nil
}
