package crawler

// The batched in-crawl classification pipeline (Config.ClassifyBatch > 1).
//
// The paper's central systems claim (§2.1.2, Figure 3, Figure 8a) is that
// classifying documents in bulk — two joins per taxonomy node over a batch
// relation — beats per-document probing by an order of magnitude. The
// crawler's hot path earns that win here: fetch workers stop classifying
// inline and instead tokenize and hand (oid, shard/rid, term vector,
// outlinks) to a classify queue. The queue is hash-partitioned by did
// (oid mod ClassifyParallelism, the DOCUMENT stripes' routing rule) across
// that many stage workers; each worker accumulates its partition into
// batches of up to ClassifyBatch documents, classifies each batch through
// classifier.BulkClassifyStream, and then completes its own visits exactly
// as the inline path does — same row update, harvest append, pendingFwd
// entry, incoming-weight sweep, link expansion, and distill trigger, via
// the shared Crawler.complete. Per-partition completion is what makes the
// stage scale on real cores: batch boundaries and visit completion no
// longer serialize behind one goroutine. Concurrent completers are sound
// because complete() takes the same locks in the same order as concurrent
// inline workers always have (stripe < shard < global < doc stripe), and
// the partition rule keeps each did's DOCUMENT rows on a single stage
// worker, so stripe-grouped bulk loads of different partitions never
// interleave one document's rows.
//
// Flush rule: when the queue goes idle for classifyFlush with a partial
// batch pending, the stage flushes it. This bounds pipeline latency and is
// what makes the pipeline deadlock-free: an empty frontier refills only
// when queued visits complete and expand their links, so a batch that will
// never fill must not wait forever.
//
// Lock interactions: the stage holds no locks while classifying (the
// model's statistics are read-only after training) and complete() takes
// exactly the locks a worker's inline path takes, in the same order
// (stripe < shard < global < doc stripe). The inflight counter stays
// raised from a page's checkout until its visit completes, so the
// stagnation check (empty frontier and inflight == 0) remains sound with
// work parked in the queue.

import (
	"fmt"
	"time"

	"focus/internal/classifier"
	"focus/internal/relstore"
	"focus/internal/textproc"
)

// classifyFlush is how long a classify stage waits for the next fetched page
// before flushing a partial batch.
const classifyFlush = time.Millisecond

// classifyItem is one successfully fetched page parked between its fetch
// worker and the classifier stage.
type classifyItem struct {
	sh  *shard
	rid relstore.RID
	row relstore.Tuple
	oid int64
	vec textproc.TermVector
	res *Fetch
}

// classifyLoop is one classifier-stage worker: it accumulates its
// partition's channel into batches of ClassifyBatch, flushing early when
// the queue idles for classifyFlush, and exits only when the channel is
// closed and drained — Run's guarantee that no in-flight batch outlives
// the crawl. After a failure every stage keeps draining (completing
// nothing, releasing inflight) so workers blocked on any queue always
// unblock. The idle flush is per-partition, which preserves the deadlock-
// freedom argument partition by partition: a parked visit's links are what
// refill an empty frontier, so no partial batch may wait forever.
func (c *Crawler) classifyLoop(ch <-chan classifyItem) {
	batch := make([]classifyItem, 0, c.cfg.ClassifyBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := c.flushBatch(batch); err != nil {
			c.classifyMu.Lock()
			if c.classifyErr == nil {
				c.classifyErr = err
			}
			c.classifyMu.Unlock()
			c.stop.Store(true)
		}
		batch = batch[:0]
	}
	idle := time.NewTimer(classifyFlush)
	if !idle.Stop() {
		<-idle.C
	}
	for {
		if len(batch) == 0 {
			item, ok := <-ch
			if !ok {
				return
			}
			batch = append(batch, item)
			continue
		}
		if len(batch) >= c.cfg.ClassifyBatch {
			flush()
			continue
		}
		idle.Reset(classifyFlush)
		select {
		case item, ok := <-ch:
			if !idle.Stop() {
				<-idle.C
			}
			if !ok {
				flush()
				return
			}
			batch = append(batch, item)
		case <-idle.C:
			flush()
		}
	}
}

// flushBatch classifies one batch with the set-oriented plan and completes
// every visit. After a prior failure the batch is discarded — each item
// only releases its inflight slot — so the pipeline drains cleanly.
func (c *Crawler) flushBatch(batch []classifyItem) error {
	// After a classify-stage error, only drain. A bare stop (budget, a
	// worker's own error) is deliberately not a reason to drop a batch:
	// these pages consumed fetch budget, so their visits complete.
	c.classifyMu.Lock()
	failed := c.classifyErr != nil
	c.classifyMu.Unlock()
	if failed {
		for range batch {
			c.inflight.Add(-1)
		}
		return nil
	}
	docs := make([]classifier.BatchDoc, len(batch))
	for i, it := range batch {
		docs[i] = classifier.BatchDoc{DID: it.oid, Vec: it.vec}
	}
	post, err := c.model.BulkClassifyStream(docs, classifier.BulkOptions{})
	if err == nil && !c.cfg.SkipDocuments {
		err = c.insertDocBatch(docs)
	}
	if err != nil {
		for range batch {
			c.inflight.Add(-1)
		}
		return err
	}
	var firstErr error
	failedAt := -1
	for i, it := range batch {
		if firstErr != nil {
			c.inflight.Add(-1)
			continue
		}
		p := post[it.oid]
		rel := c.model.Relevance(p)
		leaf := c.model.BestLeaf(p)
		if c.flushFault != nil {
			firstErr = c.flushFault(it.oid)
		}
		if firstErr == nil {
			firstErr = c.complete(it.sh, it.rid, it.row, it.vec, it.res, rel, leaf, true)
		}
		if firstErr != nil {
			failedAt = i
		}
		c.inflight.Add(-1)
	}
	if firstErr != nil && !c.cfg.SkipDocuments {
		// The batch's DOCUMENT rows were bulk-loaded up front, so the
		// visits at and after the failure point have rows on disk without a
		// completed visit — a state the inline path (which writes a page's
		// rows only after its CRAWL row persists as visited) can never
		// produce. Delete them so DOCUMENT never claims pages the crawl
		// does not.
		if derr := c.dropOrphanDocRows(batch[failedAt:]); derr != nil {
			firstErr = joinCleanupErr(firstErr, derr)
		}
	}
	return firstErr
}

// joinCleanupErr wraps a flush failure together with the cleanup failure
// that followed it. Both arms use %w: wrapping the cleanup error with %v
// would flatten it to text and hide it from errors.Is/As, so callers could
// no longer detect (say) a relstore corruption behind the flush error.
func joinCleanupErr(first, cleanup error) error {
	return fmt.Errorf("%w (orphaned DOCUMENT cleanup also failed: %w)", first, cleanup)
}

// dropOrphanDocRows removes the DOCUMENT rows of batch items whose visit
// never completed (the error path of flushBatch). items[0] is the failed
// item itself: its complete() may have died after the CRAWL row persisted
// as visited, in which case its rows stay — matching where the inline path
// would have left them.
func (c *Crawler) dropOrphanDocRows(items []classifyItem) error {
	byStripe := make(map[*docStripe]map[int64]bool)
	for i, it := range items {
		if i == 0 {
			it.sh.mu.Lock()
			row, err := it.sh.crawl.Get(it.rid)
			it.sh.mu.Unlock()
			if err == nil && int32(row[CStatus].Int()) == StatusVisited {
				continue
			}
		}
		ds := c.docFor(it.oid)
		if byStripe[ds] == nil {
			byStripe[ds] = make(map[int64]bool)
		}
		byStripe[ds][it.oid] = true
	}
	for ds, dids := range byStripe {
		ds.mu.Lock()
		var rids []relstore.RID
		err := ds.tab.Scan(func(rid relstore.RID, t relstore.Tuple) (bool, error) {
			if dids[t[0].Int()] {
				rids = append(rids, rid)
			}
			return false, nil
		})
		if err == nil {
			for _, rid := range rids {
				if err = ds.tab.Delete(rid); err != nil {
					break
				}
			}
		}
		ds.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// insertDocBatch loads the batch's DOCUMENT rows grouped by stripe
// (classifier.InsertDocsBuf), one lock acquisition per stripe instead of the
// inline path's one per visit. The rows land before the batch's visits are
// marked, where the inline path writes them just after each visit persists;
// the DOCUMENT relation is analytical (read through post-crawl Doc()
// snapshots), so only the rows' existence matters, not that ordering.
func (c *Crawler) insertDocBatch(docs []classifier.BatchDoc) error {
	byStripe := make(map[*docStripe][]classifier.BatchDoc, len(c.docs))
	for _, d := range docs {
		ds := c.docFor(d.DID)
		byStripe[ds] = append(byStripe[ds], d)
	}
	for ds, group := range byStripe {
		ds.mu.Lock()
		err := classifier.InsertDocsBuf(ds.tab, group)
		ds.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
