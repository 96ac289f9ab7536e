package webgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"focus/internal/taxonomy"
	"focus/internal/textproc"
)

// Off is the explicit-zero sentinel for rate and probability knobs whose
// zero value means "use the default" (TimeoutRate, DeadLinkRate,
// ShortcutProb, …): any negative value is clamped to zero *after*
// defaulting, so Off disables the feature instead of silently re-enabling
// it at the default rate.
const Off = -1

// Config controls generation of a synthetic web. Zero values take the
// documented defaults; for float rate/probability fields a negative value
// (see Off) means an explicit zero.
type Config struct {
	Seed int64
	Tree *taxonomy.Tree // defaults to DefaultTree()

	// NumPages is the total page count (default 20000).
	NumPages int
	// NumServers is the number of web servers (default NumPages/60, min 8).
	NumServers int
	// TopicWeights overrides the page-mass multiplier for named leaf
	// topics (e.g. give a crawl target a larger community).
	TopicWeights map[string]float64

	// DocLenMean is the mean token count per page (default 150; the paper
	// cites 200-500 terms per page, we stay at the low end for speed).
	DocLenMean int
	// TopicVocab / BackgroundVocab are vocabulary sizes (defaults 80 per
	// leaf, 1500 shared; an internal node has ancestorVocab words).
	TopicVocab      int
	BackgroundVocab int

	// OutDegreeMean is the mean out-degree of ordinary pages (default 14).
	OutDegreeMean int

	// LocalityWindow is the half-width, in topic-chain positions, of a
	// same-topic link's target window (default 30).
	LocalityWindow int
	// ShortcutProb is the probability a same-topic link escapes the window
	// and lands uniformly in the topic (default 0.06). Small values keep
	// community diameter large, as Figure 7 requires.
	ShortcutProb float64

	// HubFrac is the fraction of pages that are hubs (default 0.05).
	HubFrac float64
	// HubOutDegree is the mean out-degree of hubs (default 34).
	HubOutDegree int

	// NavLinksMean is the mean number of same-server navigation links per
	// page, the distiller's nepotism fodder (default 2).
	NavLinksMean float64

	// DeadLinkRate is the fraction of emitted outlinks that point at
	// nonexistent URLs (default 0.04). All crawlers crash, says §3.1; ours
	// must at least cope with 404s.
	DeadLinkRate float64
	// TimeoutRate is the probability a fetch transiently fails (default
	// 0.01).
	TimeoutRate float64
	// FetchLatency is the mean simulated network latency per fetch
	// (default 0: experiments measure page counts, not seconds).
	FetchLatency time.Duration

	// ServerCapacity is a per-server fetch budget within ServerWindow:
	// once a host has answered ServerCapacity fetches inside the current
	// window, further fetches to it fail 429-style with a *RateLimitError
	// (wrapping ErrRateLimited) whose RetryAfter hint is the time left in
	// the window. 0 disables rate limiting (the default).
	ServerCapacity int
	// ServerWindow is the rate-limit accounting window (default 25ms when
	// ServerCapacity is set).
	ServerWindow time.Duration
	// OutageRate is the per-fetch probability that the target host goes
	// dark for OutageLength: while dark, every fetch to it times out.
	// 0 disables outages (the default).
	OutageRate float64
	// OutageLength is how long a dark host stays unreachable (default
	// 40ms when OutageRate is set).
	OutageLength time.Duration
}

// The generator's calibration: the values every web takes, which no Config
// field varies. They shape the radius-1 and radius-2 citation rules of §2.2
// and the page text the classifier grades.
const (
	// generalWeight is the page-mass multiplier for leaves under the
	// "general" subtree, if present.
	generalWeight = 4
	// ancestorVocab is the vocabulary size of an internal taxonomy node.
	ancestorVocab = 60
	// topicMix / ancestorMix are the fractions of a page's tokens drawn
	// from its leaf topic's vocabulary and its ancestors' vocabularies (the
	// remainder is shared background). They are chosen so classifier
	// posteriors come out graded rather than saturated — real relevance
	// scores spread over (0, 1), which is what makes relevance-ordered
	// frontiers informative.
	topicMix    float64 = 0.22
	ancestorMix float64 = 0.13
	// pSameTopic is the probability an ordinary link targets the page's own
	// topic (radius-1 rule; far above the ~1/24 random baseline but
	// deliberately not a majority: a breadth-first crawler must dilute wave
	// by wave, as the paper's Figure 5(a) baseline does).
	pSameTopic = 0.42
	// pRelated is the probability an ordinary link targets one of the
	// page's related topics (DefaultAffinities).
	pRelated = 0.2
	// pSecondary is the probability that a cross-topic link goes to the
	// page's single secondary interest rather than a uniform page (radius-2
	// rule).
	pSecondary = 0.6
	// popularSkew is the probability an off-topic noise link targets one of
	// the web's few popular pages rather than a uniform one. "Pages of all
	// topics point to Netscape and Free Speech Online" (§2.2.2): junk links
	// concentrate, so a crawler sees heavy duplication among them.
	popularSkew = 0.5
	// The popular core is NumPages/popularShare pages, at least minPopular.
	popularShare = 100
	minPopular   = 50
	// hubSameTopic is the fraction of a hub's links on its own topic.
	hubSameTopic = 0.8
)

func (c Config) withDefaults() Config {
	if c.Tree == nil {
		c.Tree = DefaultTree()
	}
	def := func(p *int, v int) {
		if *p <= 0 {
			*p = v
		}
	}
	// Zero means default; negative (Off) means an explicit zero. Without
	// the clamp, `TimeoutRate: 0` silently ran at the 1% default and a
	// timeout-free web was inexpressible.
	deff := func(p *float64, v float64) {
		if *p == 0 {
			*p = v
		} else if *p < 0 {
			*p = 0
		}
	}
	def(&c.NumPages, 20000)
	if c.NumServers <= 0 {
		c.NumServers = c.NumPages / 60
		if c.NumServers < 8 {
			c.NumServers = 8
		}
	}
	def(&c.DocLenMean, 150)
	def(&c.TopicVocab, 80)
	def(&c.BackgroundVocab, 1500)
	def(&c.OutDegreeMean, 14)
	def(&c.LocalityWindow, 30)
	deff(&c.ShortcutProb, 0.06)
	deff(&c.HubFrac, 0.05)
	def(&c.HubOutDegree, 34)
	deff(&c.NavLinksMean, 2)
	deff(&c.DeadLinkRate, 0.04)
	deff(&c.TimeoutRate, 0.01)
	// Hostility knobs default to off; their companions take shape only
	// when the feature is enabled, so a zero-valued Config stays benign.
	if c.OutageRate < 0 {
		c.OutageRate = 0
	}
	if c.ServerCapacity > 0 && c.ServerWindow == 0 {
		c.ServerWindow = 25 * time.Millisecond
	}
	if c.OutageRate > 0 && c.OutageLength == 0 {
		c.OutageLength = 40 * time.Millisecond
	}
	return c
}

// Page is the ground truth for one synthetic web page. The crawler sees
// pages only through Fetch; Page fields are for generation and evaluation.
type Page struct {
	ID       int32 // index into Web.Pages
	URL      string
	Server   string
	ServerID int32
	Topic    taxonomy.NodeID // true leaf topic
	IsHub    bool
	Links    []int32 // out-links: target page indexes
	Dead     int     // number of dead out-links emitted after the real ones
	InDegree int32
	pos      int   // position in the topic's community chain
	seed     int64 // token-regeneration seed
}

// Web is a generated synthetic web.
type Web struct {
	Cfg        Config
	Pages      []*Page
	byURL      map[string]int32
	topicPages map[taxonomy.NodeID][]int32
	vocab      *vocabulary
	related    map[taxonomy.NodeID][]taxonomy.NodeID
	// digest fingerprints Cfg (configDigest), computed once by NewWeb:
	// the fetch state carries it, so an import refuses another web's.
	digest string
	fetchState
}

type vocabulary struct {
	background []string
	bgCum      []float64
	// bgGuide is bgCum's guide table (Chen and Asau, 1974): entry j is the
	// first i with bgCum[i]·m ≥ j, m = len(bgCum), where the product is the
	// one backgroundIndex takes of its draw (DESIGN.md "Page streams").
	bgGuide   []int32
	topic     map[taxonomy.NodeID][]string
	ancestors map[taxonomy.NodeID][][]string // each node's ancestors' words, parent first
}

// Generate builds a web from the configuration. Generation is deterministic
// for a given Config. It is NewWeb followed by Build.
func Generate(cfg Config) (*Web, error) {
	w, err := NewWeb(cfg)
	if err != nil {
		return nil, err
	}
	w.Build()
	return w, nil
}

// NewWeb is the first half of generation: it checks cfg and builds the
// vocabulary, which is all ExampleDocs reads, but no pages. ExampleDocs may
// run while Build does, so a caller can train a classifier on a web that is
// still being built; nothing else may be called before Build returns. NewWeb
// draws nothing from the generator's random stream.
func NewWeb(cfg Config) (*Web, error) {
	cfg = cfg.withDefaults()
	if cfg.NumPages < 100 {
		return nil, fmt.Errorf("webgraph: NumPages %d too small", cfg.NumPages)
	}
	w := &Web{
		Cfg:        cfg,
		byURL:      make(map[string]int32, cfg.NumPages),
		topicPages: make(map[taxonomy.NodeID][]int32),
		related:    make(map[taxonomy.NodeID][]taxonomy.NodeID),
		digest:     configDigest(cfg),
	}
	w.buildVocab()
	w.buildAffinities()

	leaves := cfg.Tree.Leaves()
	if len(leaves) == 0 || (len(leaves) == 1 && leaves[0] == cfg.Tree.Root) {
		return nil, fmt.Errorf("webgraph: taxonomy has no leaf topics")
	}
	return w, nil
}

// Build is the second half of generation: the pages with their topics,
// servers and URLs, the links, and the fetch state. Call it once, on a web
// from NewWeb.
//
//focuslint:rng baseline
func (w *Web) Build() {
	cfg := w.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	leaves := cfg.Tree.Leaves()
	weights := make([]float64, len(leaves))
	var totalW float64
	gen := cfg.Tree.ByName("general")
	for i, leaf := range leaves {
		weights[i] = 1
		if gen != nil {
			for _, a := range leaf.Ancestors() {
				if a == gen {
					weights[i] = generalWeight
				}
			}
		}
		if w, ok := cfg.TopicWeights[leaf.Name]; ok {
			weights[i] = w
		}
		totalW += weights[i]
	}

	// Assign topics: deterministic proportional allocation, then shuffle
	// page order so IDs don't encode topics.
	topics := make([]taxonomy.NodeID, 0, cfg.NumPages)
	for i, leaf := range leaves {
		n := int(math.Round(float64(cfg.NumPages) * weights[i] / totalW))
		for j := 0; j < n; j++ {
			topics = append(topics, leaf.ID)
		}
	}
	for len(topics) < cfg.NumPages {
		topics = append(topics, leaves[rng.Intn(len(leaves))].ID)
	}
	topics = topics[:cfg.NumPages]
	rng.Shuffle(len(topics), func(i, j int) { topics[i], topics[j] = topics[j], topics[i] })

	// Create pages and topic chains.
	w.Pages = make([]*Page, cfg.NumPages)
	for i := 0; i < cfg.NumPages; i++ {
		p := &Page{
			ID:    int32(i),
			Topic: topics[i],
			IsHub: rng.Float64() < cfg.HubFrac,
			seed:  cfg.Seed ^ (int64(i)+1)*0x5851F42D4C957F2D,
		}
		p.pos = len(w.topicPages[p.Topic])
		w.topicPages[p.Topic] = append(w.topicPages[p.Topic], p.ID)
		w.Pages[i] = p
	}

	w.assignServers(rng)
	for _, p := range w.Pages {
		p.URL = fmt.Sprintf("http://s%03d.web.test/p%06d", p.ServerID, p.ID)
		w.byURL[p.URL] = p.ID
	}
	w.generateLinks(rng)
	for _, p := range w.Pages {
		for _, dst := range p.Links {
			w.Pages[dst].InDegree++
		}
	}
	w.fetchState.init(cfg)
}

func (w *Web) buildVocab() {
	cfg := w.Cfg
	v := &vocabulary{topic: make(map[taxonomy.NodeID][]string), ancestors: make(map[taxonomy.NodeID][][]string)}
	v.background = make([]string, cfg.BackgroundVocab)
	v.bgCum = make([]float64, cfg.BackgroundVocab)
	var sum float64
	for i := range v.background {
		v.background[i] = fmt.Sprintf("w%04d", i)
		sum += 1 / math.Pow(float64(i+1), 1.05) // Zipf-ish
		v.bgCum[i] = sum
	}
	for i := range v.bgCum {
		v.bgCum[i] /= sum
	}
	// bgCum ends at exactly 1, whose product is m: every entry is filled.
	m := float64(len(v.bgCum))
	v.bgGuide = make([]int32, len(v.bgCum)+1)
	j := 0
	for i, c := range v.bgCum {
		for ; j <= int(c*m); j++ {
			v.bgGuide[j] = int32(i)
		}
	}
	var walk func(n *taxonomy.Node, ancestors [][]string)
	walk = func(n *taxonomy.Node, ancestors [][]string) {
		v.ancestors[n.ID] = ancestors
		size := cfg.TopicVocab
		if !n.IsLeaf() {
			size = ancestorVocab
		}
		words := make([]string, size)
		words[0] = n.Name // the topic's own name is its most frequent word
		for i := 1; i < size; i++ {
			words[i] = fmt.Sprintf("%sx%03d", n.Name, i)
		}
		v.topic[n.ID] = words
		for _, c := range n.Children {
			walk(c, append([][]string{words}, ancestors...))
		}
	}
	walk(cfg.Tree.Root, nil)
	w.vocab = v
}

func (w *Web) buildAffinities() {
	for name, rel := range DefaultAffinities {
		n := w.Cfg.Tree.ByName(name)
		if n == nil {
			continue
		}
		for _, rn := range rel {
			if r := w.Cfg.Tree.ByName(rn); r != nil {
				w.related[n.ID] = append(w.related[n.ID], r.ID)
			}
		}
	}
}

// assignServers places ~70% of each topic's pages on topic-affine servers
// (in chain-position clusters) and the rest on shared mega-servers.
//
//focuslint:rng baseline
func (w *Web) assignServers(rng *rand.Rand) {
	cfg := w.Cfg
	shared := cfg.NumServers / 4
	if shared < 2 {
		shared = 2
	}
	dedicated := cfg.NumServers - shared
	// Partition dedicated servers across topics by page mass.
	type span struct{ base, n int }
	spans := make(map[taxonomy.NodeID]span)
	base := shared // servers [0,shared) are the shared pool
	topicIDs := make([]taxonomy.NodeID, 0, len(w.topicPages))
	for id := range w.topicPages {
		topicIDs = append(topicIDs, id)
	}
	sort.Slice(topicIDs, func(i, j int) bool { return topicIDs[i] < topicIDs[j] })
	for _, id := range topicIDs {
		n := dedicated * len(w.topicPages[id]) / len(w.Pages)
		if n < 1 {
			n = 1
		}
		spans[id] = span{base: base, n: n}
		base += n
	}
	for _, id := range topicIDs {
		chain := w.topicPages[id]
		sp := spans[id]
		// A topical site covers a regional *segment* of its community
		// (several locality windows wide) and its pages are striped across
		// the segment: same-server navigation links therefore reach fresh
		// nearby regions (communities are locally two-dimensional), while
		// crossing the whole community still takes a chain of sites —
		// which is what keeps Figure 7's distances large.
		segs := len(chain) / (6 * cfg.LocalityWindow)
		if segs < 1 {
			segs = 1
		}
		if segs > sp.n {
			segs = sp.n
		}
		perSeg := sp.n / segs
		if perSeg < 1 {
			perSeg = 1
		}
		segLen := (len(chain) + segs - 1) / segs
		for i, pid := range chain {
			p := w.Pages[pid]
			if rng.Float64() < 0.7 {
				seg := i / segLen
				p.ServerID = int32(sp.base + (seg*perSeg+i%perSeg)%sp.n)
			} else {
				p.ServerID = int32(rng.Intn(shared))
			}
			p.Server = fmt.Sprintf("s%03d.web.test", p.ServerID)
		}
	}
}

// pickNear picks a chain member near position center within +/- window,
// wrapping around; it never returns the center itself.
//
//focuslint:rng baseline
func pickNear(chain []int32, center, window int, rng *rand.Rand) (int32, bool) {
	n := len(chain)
	if n < 2 {
		return 0, false
	}
	if window >= n {
		window = n - 1
	}
	for tries := 0; tries < 4; tries++ {
		off := rng.Intn(2*window+1) - window
		if off == 0 {
			continue
		}
		j := ((center+off)%n + n) % n
		if j != center {
			return chain[j], true
		}
	}
	return chain[(center+1)%n], true
}

// generateLinks wires the radius-1/radius-2 link structure.
//
//focuslint:rng baseline
func (w *Web) generateLinks(rng *rand.Rand) {
	cfg := w.Cfg
	leaves := cfg.Tree.Leaves()
	popular := make([]int32, max(cfg.NumPages/popularShare, minPopular))
	for i := range popular {
		popular[i] = int32(rng.Intn(len(w.Pages)))
	}
	for _, p := range w.Pages {
		chain := w.topicPages[p.Topic]
		// Secondary interest: the topic's primary affinity most of the
		// time (cycling pages' off-topic bursts mostly hit first aid, the
		// paper's citation-sociology finding), else another related topic,
		// else a random leaf.
		var secondary taxonomy.NodeID
		if rel := w.related[p.Topic]; len(rel) > 0 {
			idx := 0
			if len(rel) > 1 && rng.Float64() < 0.35 {
				idx = 1 + rng.Intn(len(rel)-1)
			}
			secondary = rel[idx]
		} else {
			secondary = leaves[rng.Intn(len(leaves))].ID
		}
		secChain := w.topicPages[secondary]
		secAnchor := 0
		if len(secChain) > 0 {
			secAnchor = rng.Intn(len(secChain))
		}

		deg := cfg.OutDegreeMean/2 + rng.Intn(cfg.OutDegreeMean+1)
		window := cfg.LocalityWindow
		pSame := pSameTopic
		if p.IsHub {
			deg = cfg.HubOutDegree*3/4 + rng.Intn(cfg.HubOutDegree/2+1)
			window = cfg.LocalityWindow * 3
			pSame = hubSameTopic
		}
		for k := 0; k < deg; k++ {
			u := rng.Float64()
			switch {
			case u < pSame:
				// Same-topic link: windowed, with occasional shortcut.
				if rng.Float64() < cfg.ShortcutProb {
					if len(chain) > 1 {
						p.Links = append(p.Links, chain[rng.Intn(len(chain))])
					}
				} else if dst, ok := pickNear(chain, p.pos, window, rng); ok {
					p.Links = append(p.Links, dst)
				}
			case u < pSame+pRelated && len(secChain) > 1 && rng.Float64() < pSecondary:
				// Secondary-interest links come in bursts near the page's
				// anchor there: the structure behind the radius-2 rule.
				burst := 1
				if rng.Float64() < 0.7 {
					burst++
				}
				if rng.Float64() < 0.35 {
					burst++
				}
				for b := 0; b < burst; b++ {
					if dst, ok := pickNear(secChain, secAnchor, window, rng); ok {
						p.Links = append(p.Links, dst)
					}
				}
			default:
				if rng.Float64() < popularSkew {
					p.Links = append(p.Links, popular[rng.Intn(len(popular))])
				} else {
					p.Links = append(p.Links, int32(rng.Intn(len(w.Pages))))
				}
			}
		}
		// Same-server navigation links (nepotism).
		nav := int(cfg.NavLinksMean)
		if rng.Float64() < cfg.NavLinksMean-float64(nav) {
			nav++
		}
		for k := 0; k < nav; k++ {
			// Cheap same-server pick: scan a few random pages.
			for tries := 0; tries < 8; tries++ {
				cand := w.Pages[rng.Intn(len(w.Pages))]
				if cand.ServerID == p.ServerID && cand.ID != p.ID {
					p.Links = append(p.Links, cand.ID)
					break
				}
			}
		}
		// Dead links.
		for k := 0; k < len(p.Links); k++ {
			if rng.Float64() < cfg.DeadLinkRate {
				p.Dead++
			}
		}
	}
}

// PageByURL returns ground truth for a URL (evaluation only), or nil.
func (w *Web) PageByURL(url string) *Page {
	i, ok := w.byURL[url]
	if !ok {
		return nil
	}
	return w.Pages[i]
}

// TopicPages returns the IDs of the topic's pages in chain order.
func (w *Web) TopicPages(c taxonomy.NodeID) []int32 { return w.topicPages[c] }

// NumServersUsed returns the configured server count.
func (w *Web) NumServersUsed() int { return w.Cfg.NumServers }

// tokensOf regenerates the page's token stream from rng, seeded with p.seed,
// into buf when it has room and into a fresh list otherwise.
//
//focuslint:rng baseline
func (w *Web) tokensOf(p *Page, rng *rand.Rand, buf []string) []string {
	cfg := w.Cfg
	n := cfg.DocLenMean/2 + rng.Intn(cfg.DocLenMean+1)
	words := w.vocab.topic[p.Topic]
	ancestors := w.vocab.ancestors[p.Topic]
	toks := buf[:0]
	if cap(toks) < n {
		toks = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		u := rng.Float64()
		switch {
		case u < topicMix:
			toks = append(toks, pickTopicWord(words, rng))
		case u < topicMix+ancestorMix && len(ancestors) > 0:
			a := ancestors[rng.Intn(len(ancestors))]
			toks = append(toks, pickTopicWord(a, rng))
		default:
			toks = append(toks, w.pickBackground(rng))
		}
	}
	return toks
}

// pickTopicWord draws from a topic vocabulary with a mild rank bias (rank 0,
// the topic name, is most likely).
//
//focuslint:rng baseline
func pickTopicWord(words []string, rng *rand.Rand) string {
	u := rng.Float64()
	idx := int(u * u * float64(len(words)))
	if idx >= len(words) {
		idx = len(words) - 1
	}
	return words[idx]
}

// pickBackground draws one background-vocabulary word (Zipf-ish via the
// precomputed cumulative distribution).
//
//focuslint:rng baseline
func (w *Web) pickBackground(rng *rand.Rand) string {
	return w.vocab.background[w.vocab.backgroundIndex(rng.Float64())]
}

// backgroundIndex returns the first i with bgCum[i] ≥ u for u in [0, 1),
// sort.SearchFloat64s(bgCum, u), by a scan from u's guide entry: every
// earlier entry's product, and so the entry itself, is below u's.
func (v *vocabulary) backgroundIndex(u float64) int {
	i := int(v.bgGuide[int(u*float64(len(v.bgCum)))])
	for i < len(v.bgCum)-1 && v.bgCum[i] < u {
		i++
	}
	return i
}

// ExampleDocs returns n example documents for training topic c, each as
// its term vector: textproc.VectorOfTokens of the document's token stream,
// which is the paper's (did, tid, freq) form of a training document
// (§2.1.3). They are drawn from the same generative model as real pages of c
// but correspond to no crawlable page, preserving train/test separation.
// Each document's tokens are generated into one buffer the call reuses and
// vectorized at once, so no token list outlives its document.
func (w *Web) ExampleDocs(c taxonomy.NodeID, n int) []textproc.TermVector {
	out := make([]textproc.TermVector, n)
	rng := pageRngs.Get().(*rand.Rand)
	defer pageRngs.Put(rng)
	toks := make([]string, 0, w.Cfg.DocLenMean/2+w.Cfg.DocLenMean) // tokensOf's longest
	for i := range out {
		fake := Page{
			Topic: c,
			seed:  w.Cfg.Seed ^ -(int64(c)*1000003 + int64(i) + 7),
		}
		rng.Seed(fake.seed)
		toks = w.tokensOf(&fake, rng, toks)
		out[i] = textproc.VectorOfTokens(toks)
	}
	return out
}

// SeedSets returns two disjoint seed URL sets for a topic, both drawn from
// the popular head region of the topic chain ordered by in-degree — a stand-
// in for "results of topic distillation with keyword search" (§3.4) from
// two different search engines (§3.5).
func (w *Web) SeedSets(c taxonomy.NodeID, n1, n2 int) (s1, s2 []string) {
	chain := w.topicPages[c]
	region := 4 * (n1 + n2)
	if r := 3 * w.Cfg.LocalityWindow; r > region {
		region = r
	}
	if region > len(chain) {
		region = len(chain)
	}
	cands := append([]int32(nil), chain[:region]...)
	sort.Slice(cands, func(i, j int) bool {
		a, b := w.Pages[cands[i]], w.Pages[cands[j]]
		if a.InDegree != b.InDegree {
			return a.InDegree > b.InDegree
		}
		return a.ID < b.ID
	})
	for i, pid := range cands {
		switch {
		case i%2 == 0 && len(s1) < n1:
			s1 = append(s1, w.Pages[pid].URL)
		case len(s2) < n2:
			s2 = append(s2, w.Pages[pid].URL)
		}
	}
	return s1, s2
}

// Seeds is SeedSets' first set only.
func (w *Web) Seeds(c taxonomy.NodeID, n int) []string {
	s1, _ := w.SeedSets(c, n, 0)
	return s1
}

// DistancesWithin runs BFS from the start URLs using only links between
// pages of the given topic — an idealized view of the paths a perfectly
// focused crawler can traverse. The full web is small-world (uniform noise
// links make everything a few hops away), but a focused crawler never
// expands irrelevant pages, so the distances that matter are intra-
// community ones, which the locality chains keep large (Figure 7).
func (w *Web) DistancesWithin(c taxonomy.NodeID, from []string) map[int32]int {
	dist := make(map[int32]int)
	var queue []int32
	for _, u := range from {
		if i, ok := w.byURL[u]; ok && w.Pages[i].Topic == c {
			if _, seen := dist[i]; !seen {
				dist[i] = 0
				queue = append(queue, i)
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		for _, nxt := range w.Pages[cur].Links {
			if w.Pages[nxt].Topic != c {
				continue
			}
			if _, seen := dist[nxt]; !seen {
				dist[nxt] = d + 1
				queue = append(queue, nxt)
			}
		}
	}
	return dist
}

// Distances runs BFS over the true graph from the given start URLs and
// returns the link distance to every reachable page (evaluation only).
func (w *Web) Distances(from []string) map[int32]int {
	dist := make(map[int32]int)
	var queue []int32
	for _, u := range from {
		if i, ok := w.byURL[u]; ok {
			if _, seen := dist[i]; !seen {
				dist[i] = 0
				queue = append(queue, i)
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		for _, nxt := range w.Pages[cur].Links {
			if _, seen := dist[nxt]; !seen {
				dist[nxt] = d + 1
				queue = append(queue, nxt)
			}
		}
	}
	return dist
}
