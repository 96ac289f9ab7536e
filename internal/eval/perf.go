package eval

import (
	"fmt"
	"io"
	"time"

	"focus/internal/classifier"
	"focus/internal/crawler"
	"focus/internal/distiller"
	"focus/internal/relstore"
	"focus/internal/textproc"
	"focus/internal/webgraph"
)

// ClassifierPerfConfig drives the Figure 8(a) experiment: classify a batch
// of documents with the three access paths and compare time plus page I/O.
type ClassifierPerfConfig struct {
	Seed   int64
	Docs   int
	Frames int
	Train  classifier.TrainConfig
	// DiskLatency adds simulated per-page-I/O delay, amplifying the
	// access-path differences the way a 1999 SCSI disk did.
	DiskLatency time.Duration
	// BigVocab inflates the vocabulary and feature budget so the statistics
	// far exceed small buffer pools — the paper's disk-bound regime (350 MB
	// of models against 128 MB of RAM).
	BigVocab bool
}

func (c ClassifierPerfConfig) withDefaults() ClassifierPerfConfig {
	if c.Docs <= 0 {
		c.Docs = 400
	}
	if c.Frames <= 0 {
		c.Frames = 256
	}
	return c
}

// VariantPerf is one bar of Figure 8(a).
type VariantPerf struct {
	Name      string
	Total     time.Duration
	ScanDoc   time.Duration // reading DOCUMENT
	ProbeStat time.Duration // statistics access
	CPU       time.Duration // remainder
	PerDoc    time.Duration
	PoolHits  int64
	PoolMiss  int64
	DiskReads int64
}

// ClassifierPerfResult carries all three bars.
type ClassifierPerfResult struct {
	Docs     int
	Variants []VariantPerf // SQL, BLOB, Bulk (CLI)
}

// classifierFixture builds a trained model, materialized into the fixture's
// DB, plus a populated DOCUMENT table.
type classifierFixture struct {
	db    *relstore.DB
	disk  *relstore.MemDisk
	model *classifier.Model
	doc   *relstore.Table
	dids  []int64
}

func newClassifierFixture(o ClassifierPerfConfig) (*classifierFixture, error) {
	webCfg := webgraph.Config{Seed: o.Seed, NumPages: 1000}
	if o.BigVocab {
		webCfg.BackgroundVocab = 6000
		webCfg.TopicVocab = 200
		webCfg.DocLenMean = 220
		if o.Train.FeaturesPerNode <= 0 {
			o.Train.FeaturesPerNode = 3000
		}
	}
	web, err := webgraph.Generate(webCfg)
	if err != nil {
		return nil, err
	}
	disk := relstore.NewMemDisk()
	db := relstore.Open(relstore.Options{Disk: disk, Frames: o.Frames})
	tree := web.Cfg.Tree
	examples := classifier.Examples{}
	for _, leaf := range tree.Leaves() {
		examples[leaf.ID] = web.ExampleDocs(leaf.ID, 25)
	}
	model, err := classifier.Train(nil, tree, examples, o.Train)
	if err != nil {
		return nil, err
	}
	if err := model.Materialize(db); err != nil {
		return nil, err
	}
	doc, err := db.CreateTable("DOCUMENT", classifier.DocSchema())
	if err != nil {
		return nil, err
	}
	leaves := tree.Leaves()
	f := &classifierFixture{db: db, disk: disk, model: model, doc: doc}
	// Fresh test documents per leaf, disjoint from the training range.
	perLeaf := o.Docs/len(leaves) + 1
	pools := make(map[int]([][]string), len(leaves))
	for li, leaf := range leaves {
		pools[li] = web.ExampleDocs(leaf.ID, 100+perLeaf)[100:]
	}
	for i := 0; i < o.Docs; i++ {
		li := i % len(leaves)
		toks := pools[li][i/len(leaves)]
		did := int64(i + 1)
		if err := classifier.InsertDoc(doc, did, textproc.VectorOfTokens(toks)); err != nil {
			return nil, err
		}
		f.dids = append(f.dids, did)
	}
	// Latency applies to measurement, not setup.
	disk.SetLatency(o.DiskLatency)
	return f, nil
}

// docVectors reads the whole DOCUMENT table into per-document vectors,
// timing the scan (the "Scan Doc" slice of Figure 8a). InsertDoc wrote each
// document's rows together in ascending tid order, and a heap scan returns
// them in that order, so appending keeps every vector sorted.
func (f *classifierFixture) docVectors() (map[int64]textproc.TermVector, time.Duration, error) {
	t0 := time.Now()
	out := make(map[int64]textproc.TermVector)
	err := f.doc.Scan(func(_ relstore.RID, t relstore.Tuple) (bool, error) {
		did := t[0].Int()
		out[did] = append(out[did], textproc.Term{TID: uint32(t[1].Int()), Freq: int32(t[2].Int())})
		return false, nil
	})
	return out, time.Since(t0), err
}

// singleProbe classifies every fixture document through one SingleProbe
// layout and returns the time spent in statistics access.
func (f *classifierFixture) singleProbe(vecs map[int64]textproc.TermVector, layout classifier.ProbeLayout) (time.Duration, error) {
	var probe time.Duration
	for _, did := range f.dids {
		_, st, err := f.model.SingleProbeTimed(vecs[did], layout)
		if err != nil {
			return 0, err
		}
		probe += st.ProbeTime
	}
	return probe, nil
}

// RunClassifierPerf reproduces Figure 8(a), each bar on a fresh fixture.
func RunClassifierPerf(cfg ClassifierPerfConfig) (*ClassifierPerfResult, error) {
	cfg = cfg.withDefaults()
	out := &ClassifierPerfResult{Docs: cfg.Docs}
	// classify runs one access path over the fixture's documents and
	// returns the time it spent reading DOCUMENT and probing statistics.
	bar := func(name string, classify func(*classifierFixture) (scan, probe time.Duration, err error)) error {
		fix, err := newClassifierFixture(cfg)
		if err != nil {
			return err
		}
		pool := fix.db.Pool()
		pool.ResetStats()
		fix.disk.Stats().Reset()
		start := time.Now()
		scan, probe, err := classify(fix)
		if err != nil {
			return err
		}
		total := time.Since(start)
		stats := pool.Stats()
		reads, _ := fix.disk.Stats().Snapshot()
		out.Variants = append(out.Variants, VariantPerf{
			Name: name, Total: total,
			ScanDoc: scan, ProbeStat: probe,
			CPU:      total - scan - probe,
			PerDoc:   total / time.Duration(cfg.Docs),
			PoolHits: stats.Hits, PoolMiss: stats.Misses, DiskReads: reads,
		})
		return nil
	}
	for _, v := range []struct {
		name   string
		layout classifier.ProbeLayout
	}{
		{"SQL (SingleProbe, unpacked)", classifier.LayoutSQL},
		{"BLOB (SingleProbe, packed)", classifier.LayoutBLOB},
	} {
		err := bar(v.name, func(fix *classifierFixture) (scan, probe time.Duration, err error) {
			vecs, scan, err := fix.docVectors()
			if err != nil {
				return 0, 0, err
			}
			probe, err = fix.singleProbe(vecs, v.layout)
			return scan, probe, err
		})
		if err != nil {
			return nil, err
		}
	}
	// Bulk (the paper's CLI bar).
	err := bar("CLI (BulkProbe, sort-merge)", func(fix *classifierFixture) (scan, probe time.Duration, err error) {
		_, err = fix.model.BulkClassify(fix.doc, classifier.BulkOptions{})
		return 0, 0, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the Figure 8(a) bars.
func (r *ClassifierPerfResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8(a): classification running time, %d documents\n", r.Docs)
	fmt.Fprintf(w, "%-30s %10s %10s %10s %10s %10s %14s %10s\n",
		"variant", "total", "scan-doc", "probe", "cpu", "per-doc", "page-accesses", "pool-miss")
	for _, v := range r.Variants {
		fmt.Fprintf(w, "%-30s %10s %10s %10s %10s %10s %14d %10d\n",
			v.Name, rnd(v.Total), rnd(v.ScanDoc), rnd(v.ProbeStat), rnd(v.CPU),
			rnd(v.PerDoc), v.PoolHits+v.PoolMiss, v.PoolMiss)
	}
}

// MemoryScalingPoint is one x-position of Figure 8(b).
type MemoryScalingPoint struct {
	Frames      int
	SingleTotal time.Duration
	SingleProbe time.Duration
	BulkTotal   time.Duration
	SingleMiss  int64
	BulkMiss    int64
}

// MemoryScalingResult carries the Figure 8(b) sweep.
type MemoryScalingResult struct {
	Docs   int
	Points []MemoryScalingPoint
}

// RunMemoryScaling reproduces Figure 8(b): SingleProbe (BLOB layout) and
// BulkProbe running time as the buffer pool grows.
func RunMemoryScaling(seed int64, docs int, frames []int, latency time.Duration) (*MemoryScalingResult, error) {
	if docs == 0 {
		docs = 250
	}
	if len(frames) == 0 {
		frames = []int{128, 328, 528, 728, 928}
	}
	out := &MemoryScalingResult{Docs: docs}
	for _, fr := range frames {
		fcfg := ClassifierPerfConfig{Seed: seed, Docs: docs, Frames: fr, DiskLatency: latency, BigVocab: true}
		fix, err := newClassifierFixture(fcfg)
		if err != nil {
			return nil, err
		}
		vecs, _, err := fix.docVectors()
		if err != nil {
			return nil, err
		}
		pool := fix.db.Pool()
		pool.ResetStats()
		start := time.Now()
		probe, err := fix.singleProbe(vecs, classifier.LayoutBLOB)
		if err != nil {
			return nil, err
		}
		singleTotal := time.Since(start)
		singleMiss := pool.Stats().Misses

		fix2, err := newClassifierFixture(fcfg)
		if err != nil {
			return nil, err
		}
		pool2 := fix2.db.Pool()
		pool2.ResetStats()
		start = time.Now()
		if _, err := fix2.model.BulkClassify(fix2.doc, classifier.BulkOptions{
			SortMem: fr * relstore.PageSize / 2,
		}); err != nil {
			return nil, err
		}
		bulkTotal := time.Since(start)
		out.Points = append(out.Points, MemoryScalingPoint{
			Frames:      fr,
			SingleTotal: singleTotal,
			SingleProbe: probe,
			BulkTotal:   bulkTotal,
			SingleMiss:  singleMiss,
			BulkMiss:    pool2.Stats().Misses,
		})
	}
	return out, nil
}

// Render prints the Figure 8(b) series.
func (r *MemoryScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8(b): memory scaling, %d documents\n", r.Docs)
	fmt.Fprintf(w, "%12s %12s %12s %12s %12s %12s\n",
		"frames(4kB)", "SingleTotal", "SingleProbe", "BulkTotal", "single-miss", "bulk-miss")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12d %12s %12s %12s %12d %12d\n",
			p.Frames, rnd(p.SingleTotal), rnd(p.SingleProbe), rnd(p.BulkTotal),
			p.SingleMiss, p.BulkMiss)
	}
}

// OutputScalingPoint is one point of Figure 8(c).
type OutputScalingPoint struct {
	Docs       int
	OutputSize int64 // #kcid x #did summed over internal nodes
	BulkTotal  time.Duration
}

// OutputScalingResult carries the Figure 8(c) scatter.
type OutputScalingResult struct {
	Points []OutputScalingPoint
}

// RunOutputScaling reproduces Figure 8(c): bulk classification time against
// output size over several decades of batch size.
func RunOutputScaling(seed int64, docCounts []int, frames int) (*OutputScalingResult, error) {
	if len(docCounts) == 0 {
		docCounts = []int{25, 80, 250, 800, 2500}
	}
	if frames == 0 {
		frames = 2048
	}
	out := &OutputScalingResult{}
	for _, docs := range docCounts {
		fix, err := newClassifierFixture(ClassifierPerfConfig{Seed: seed, Docs: docs, Frames: frames})
		if err != nil {
			return nil, err
		}
		var outputSize int64
		for _, c0 := range fix.model.Tree.Internal() {
			outputSize += int64(len(c0.Children)) * int64(docs)
		}
		start := time.Now()
		if _, err := fix.model.BulkClassify(fix.doc, classifier.BulkOptions{}); err != nil {
			return nil, err
		}
		out.Points = append(out.Points, OutputScalingPoint{
			Docs:       docs,
			OutputSize: outputSize,
			BulkTotal:  time.Since(start),
		})
	}
	return out, nil
}

// Render prints the Figure 8(c) points with the time-per-output ratio that
// should stay roughly flat if the algorithm is linear in output size.
func (r *OutputScalingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8(c): bulk classification vs output size\n")
	fmt.Fprintf(w, "%8s %14s %12s %16s\n", "#did", "#kcid x #did", "time", "ns per output")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %14d %12s %16.0f\n",
			p.Docs, p.OutputSize, rnd(p.BulkTotal),
			float64(p.BulkTotal.Nanoseconds())/float64(p.OutputSize))
	}
}

// DistillerPerfConfig drives Figure 8(d): one distillation run over a real
// crawl graph, index-walk versus join.
type DistillerPerfConfig struct {
	Web         webgraph.Config
	Topic       string
	CrawlBudget int64
	Iterations  int
	Frames      int
	DiskLatency time.Duration
}

func (c DistillerPerfConfig) withDefaults() DistillerPerfConfig {
	if c.Topic == "" {
		c.Topic = "cycling"
	}
	if c.CrawlBudget <= 0 {
		c.CrawlBudget = 1200
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	if c.Frames <= 0 {
		c.Frames = 512
	}
	return c
}

// DistillerPerfResult carries the Figure 8(d) bars. Accesses are buffer-pool
// page accesses (hits + misses) and Reads the physical reads among them: the
// figure's argument is about those counts, which repeat run to run; the
// times depend on how much of the graph the pool of Frames frames holds.
type DistillerPerfResult struct {
	Edges        int64
	Frames       int
	IndexWalk    distiller.Breakdown
	Join         distiller.Breakdown
	WalkAccesses int64
	JoinAccesses int64
	WalkReads    int64
	JoinReads    int64
}

// RunDistillerPerf reproduces Figure 8(d): crawl a topic to build a LINK
// graph, then run both distiller implementations over it.
func RunDistillerPerf(cfg DistillerPerfConfig) (*DistillerPerfResult, error) {
	cfg = cfg.withDefaults()
	sys, _, err := crawlRun{
		WebCfg: cfg.Web, Topic: cfg.Topic, Seeds: 25, Frames: cfg.Frames,
		Crawl: crawler.Config{Workers: 8, MaxFetches: cfg.CrawlBudget},
	}.run()
	if err != nil {
		return nil, err
	}
	db, cr := sys.DB, sys.Crawler
	// No DBPath, so the crawl DB sits on relstore.Open's memory disk.
	disk := db.Disk().(*relstore.MemDisk)

	out := &DistillerPerfResult{Edges: cr.Links().Rows(), Frames: cfg.Frames}
	dcfg := distiller.Config{Iterations: cfg.Iterations}
	// Materialize the cross-shard CRAWL snapshot and the oid indexes the
	// index walk probes (the crawl keeps none) once, before latency and
	// stats kick in, so both strategies measure pure distillation I/O.
	tables, err := cr.Tables()
	if err != nil {
		return nil, err
	}
	for _, tb := range []*relstore.Table{tables.Crawl, tables.Hubs, tables.Auth} {
		if _, err := tb.AddIndex("oid", func(t relstore.Tuple) []byte { return relstore.EncodeKey(t[0]) }); err != nil {
			return nil, err
		}
	}
	disk.SetLatency(cfg.DiskLatency)
	defer disk.SetLatency(0)

	accesses := func() int64 {
		st := db.Pool().Stats()
		return st.Hits + st.Misses
	}
	disk.Stats().Reset()
	before := accesses()
	out.IndexWalk, err = distiller.RunIndexWalk(db, tables, dcfg)
	if err != nil {
		return nil, err
	}
	out.WalkAccesses = accesses() - before
	out.WalkReads, _ = disk.Stats().Snapshot()

	disk.Stats().Reset()
	before = accesses()
	out.Join, err = distiller.RunJoin(db, tables, dcfg)
	if err != nil {
		return nil, err
	}
	out.JoinAccesses = accesses() - before
	out.JoinReads, _ = disk.Stats().Snapshot()
	return out, nil
}

// Render prints the Figure 8(d) bars with their phase decomposition.
func (r *DistillerPerfResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8(d): distillation running time over %d edges\n", r.Edges)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %14s %12s\n",
		"variant", "total", "scan", "lookup", "update", "sort", "page-accesses", "disk-reads")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %14d %12d\n", "Index",
		rnd(r.IndexWalk.Total()), rnd(r.IndexWalk.Scan), rnd(r.IndexWalk.Lookup),
		rnd(r.IndexWalk.Update), rnd(r.IndexWalk.Sort), r.WalkAccesses, r.WalkReads)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %14d %12d\n", "Join",
		rnd(r.Join.Total()), rnd(r.Join.Scan), rnd(r.Join.Lookup),
		rnd(r.Join.Update), rnd(r.Join.Sort), r.JoinAccesses, r.JoinReads)
	if j := r.Join.Total(); j > 0 && r.JoinAccesses > 0 {
		fmt.Fprintf(w, "speedup: %.2fx in time (pool %d frames, %d walk / %d join misses), %.1fx in page accesses\n",
			float64(r.IndexWalk.Total())/float64(j), r.Frames, r.WalkReads, r.JoinReads,
			float64(r.WalkAccesses)/float64(r.JoinAccesses))
	}
}
